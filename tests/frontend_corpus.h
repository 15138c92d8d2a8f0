// The front-end corpus: seeded inputs for the three text decoders —
// text::LoadWorkspace, core::ParseRequirementString and
// query::ParseQueryString — and for the name check of
// core::AnalysisSession::AddCapability, with one FNV-1a hash per seed
// and decoder that folds every input's outcome. frontend_corpus_test
// pins the hashes, so any change to what a decoder accepts, to a
// diagnostic's text or `line:col`, to the dump or to the schema
// fingerprint fails there and names the seed.
//
// Per seed (1..1000 are the verdict corpus's workspaces, seed 0 is the
// shell's stockbroker.odb):
//   * workspaces: the text clean; the text dressed with `#` and `//`
//     comments, tabs, `\r\n` line ends and object declarations with
//     int, negative, INT64_MIN, string (escaped and plain), bool and
//     null literals; and eight seeded mutations of the dressed text —
//     two byte flips, a deletion, a truncation, an inserted keyword, an
//     inserted punctuation token, an inserted literal (the 2^63 and
//     20-digit integers, `"\q"`, an open string, `//`, …) and a splice
//     with the next seed's text;
//   * requirements: four texts over the seed's functions and r_/w_
//     names (some with wrong arities, unknown users, an unknown
//     capability or none at all), then each mutated once;
//   * queries: four texts that call the seed's functions and reads over
//     its class extents (some with a nested select, a let, a prefix
//     call or a where clause), then each mutated once;
//   * capabilities: AddCapability for the first user and every function
//     name, every r_/w_ name and a few names that resolve to nothing,
//     plus one grant to an unknown user.
//
// What an input contributes: on success, the FormatWorkspace bytes plus
// Schema::fingerprint(); Requirement::ToString(); or
// SelectQuery::ToString() plus BindQuery's status against the seed's
// schema. On failure, the full status text: code, message and
// `line:col`. Every accepted workspace must also dump and reload to the
// very same bytes; a difference is reported, not hashed.
#ifndef OODBSEC_TESTS_FRONTEND_CORPUS_H_
#define OODBSEC_TESTS_FRONTEND_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.h"
#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/requirement.h"
#include "query/binder.h"
#include "query/query_parser.h"
#include "text/workspace.h"
#include "verdict_corpus.h"

namespace oodbsec::corpus {

struct FrontendHashes {
  uint64_t workspaces = 0;
  uint64_t requirements = 0;
  uint64_t queries = 0;
  uint64_t capabilities = 0;
};

// Accepted and rejected inputs per decoder, and round-trip failures.
struct FrontendTally {
  int accepted[3] = {0, 0, 0};  // workspaces, requirements, queries
  int rejected[3] = {0, 0, 0};
  std::vector<std::string> round_trip_failures;
};

namespace frontend {

enum class Mutation {
  kFlip,
  kDelete,
  kTruncate,
  kKeyword,
  kPunctuation,
  kLiteral,
  kSplice,
};

inline const std::vector<std::string>& Keywords() {
  static const auto& words = *new std::vector<std::string>{
      "let",  "in",       "end",  "null", "true",   "false",  "and",
      "or",   "not",      "class", "function", "user", "can", "require",
      "select", "from",   "where", "object", "constraint"};
  return words;
}

inline const std::vector<std::string>& Punctuation() {
  static const auto& marks = *new std::vector<std::string>{
      "(", ")", "{", "}", ",", ":", ";", "=", "==", "!=", "!", "<", "<=",
      ">", ">=", "+", "-", "*", "/", "%", "@", "$", "\t", "\r\n", "\n"};
  return marks;
}

inline const std::vector<std::string>& Literals() {
  static const auto& literals = *new std::vector<std::string>{
      "9223372036854775808", "-9223372036854775808", "99999999999999999999",
      "0", "42", "\"\\q\"", "\"a\\\"b\"", "\"x\\\\y\\n\\t\"", "\"open",
      "\"line\nbreak\"", "\"esc\\", "//", "# note\n", "// note\n", "\"\""};
  return literals;
}

// Bytes a flip favours: the ones that switch lexer states.
inline constexpr std::string_view kLexicalBytes =
    "\"\\#/\n\r\t@!09a_(){};,:=<>-+*% ";

inline size_t Position(Rng& rng, size_t size) {
  return static_cast<size_t>(rng.Next() % (size + 1));
}

inline std::string Mutate(Mutation mutation, Rng& rng, std::string text,
                          std::string_view other) {
  switch (mutation) {
    case Mutation::kFlip: {
      if (text.empty()) return text;
      size_t at = Position(rng, text.size() - 1);
      if (rng.Chance(50)) {
        text[at] = kLexicalBytes[static_cast<size_t>(
            rng.Below(static_cast<int>(kLexicalBytes.size())))];
      } else {
        text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^
                                     (1 + rng.Below(255)));
      }
      return text;
    }
    case Mutation::kDelete: {
      if (text.empty()) return text;
      size_t at = Position(rng, text.size() - 1);
      text.erase(at, static_cast<size_t>(rng.Range(1, 8)));
      return text;
    }
    case Mutation::kTruncate:
      text.resize(Position(rng, text.size()));
      return text;
    case Mutation::kKeyword:
    case Mutation::kPunctuation:
    case Mutation::kLiteral: {
      const std::vector<std::string>& pool =
          mutation == Mutation::kKeyword       ? Keywords()
          : mutation == Mutation::kPunctuation ? Punctuation()
                                               : Literals();
      std::string insert = rng.Pick(pool);
      if (rng.Chance(50)) insert = " " + insert + " ";
      text.insert(Position(rng, text.size()), insert);
      return text;
    }
    case Mutation::kSplice: {
      size_t cut = Position(rng, text.size());
      size_t from = Position(rng, other.size());
      text.resize(cut);
      text.append(other.substr(from));
      return text;
    }
  }
  return text;
}

inline Mutation AnyMutation(Rng& rng) {
  return static_cast<Mutation>(rng.Below(7));
}

// A literal for an object field of `type`, or "" to leave it out.
inline std::string FieldLiteral(Rng& rng, const types::Type* type) {
  if (type->kind() == types::TypeKind::kInt) {
    static const std::vector<std::string> ints = {
        "0", "7", "-3", "9223372036854775807", "-9223372036854775808",
        "- 12"};
    return rng.Pick(ints);
  }
  if (type->kind() == types::TypeKind::kBool) {
    return rng.Chance(50) ? "true" : "false";
  }
  if (type->kind() == types::TypeKind::kString) {
    static const std::vector<std::string> strings = {
        "\"John\"", "\"a\\\"b\"", "\"x\\\\y\\n\\tz\"", "\"\"", "\"#not//\""};
    return rng.Pick(strings);
  }
  return rng.Chance(30) ? "null" : "";
}

// `text` with comments, tabs and \r\n line ends mixed in, and object
// declarations for the classes of `schema` appended.
inline std::string Dress(Rng& rng, std::string_view text,
                         const schema::Schema& schema) {
  std::string out = "# dressed workspace\n";
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (rng.Chance(20)) out += "\t";
    out += line;
    if (rng.Chance(15)) out += "  # trailing note";
    if (rng.Chance(10)) out += " // another";
    out += rng.Chance(25) ? "\r\n" : "\n";
    if (rng.Chance(10)) out += "//\n\t\n";
  }
  for (const auto& cls : schema.classes()) {
    const int objects = rng.Range(0, 2);
    for (int o = 0; o < objects; ++o) {
      std::vector<std::string> fields;
      for (const schema::AttributeDef& attr : cls->attributes()) {
        std::string literal = FieldLiteral(rng, attr.type);
        if (!literal.empty()) {
          fields.push_back(common::StrCat(attr.name, " = ", literal));
        }
      }
      out += common::StrCat("object ", cls->name(), " { ",
                            common::Join(fields, rng.Chance(50) ? ", " : ","),
                            " }", rng.Chance(50) ? "\r\n" : "\n");
    }
  }
  return out;
}

struct Name {
  std::string name;
  size_t params;
};

// Every function and r_/w_ name of `schema`, with its arity.
inline std::vector<Name> Callables(const schema::Schema& schema) {
  std::vector<Name> out;
  for (const auto& fn : schema.functions()) {
    out.push_back({fn->name(), fn->params().size()});
  }
  for (const auto& cls : schema.classes()) {
    for (const schema::AttributeDef& attr : cls->attributes()) {
      out.push_back({"r_" + attr.name, 1});
      out.push_back({"w_" + attr.name, 2});
    }
  }
  return out;
}

inline std::string CapList(Rng& rng) {
  static const std::vector<std::string> caps = {"ti", "pi", "ta", "pa"};
  std::string out;
  for (const std::string& cap : caps) {
    if (rng.Chance(30)) out += common::StrCat(" : ", cap);
  }
  if (rng.Chance(4)) out += " : tx";
  return out;
}

inline std::string RequirementText(Rng& rng, const schema::Schema& schema,
                                   const std::vector<std::string>& users) {
  const Name callable = rng.Pick(Callables(schema));
  size_t arity = callable.params;
  if (rng.Chance(10)) arity = arity == 0 ? 1 : arity - 1;
  std::string user = users.empty() || rng.Chance(10) ? "nobody"
                                                     : rng.Pick(users);
  std::vector<std::string> args;
  for (size_t i = 0; i < arity; ++i) {
    args.push_back(common::StrCat("x", i, CapList(rng)));
  }
  std::string result = CapList(rng);
  if (rng.Chance(70) && result.empty()) result = " : ti";
  return common::StrCat("(", user, ", ", callable.name, "(",
                        common::Join(args, ", "), ")", result, ")");
}

// A query over the extents of `schema` calling one of its callables.
inline std::string QueryText(Rng& rng, const schema::Schema& schema) {
  std::vector<std::string> from;
  std::vector<std::string> args;
  const schema::ClassDef* first_class = nullptr;
  std::string first_var;
  auto bind = [&](const schema::ClassDef* cls) {
    std::string var = common::StrCat("v", from.size());
    from.push_back(common::StrCat(var, " in ", cls->name()));
    if (first_class == nullptr) {
      first_class = cls;
      first_var = var;
    }
    return var;
  };
  std::string call;
  if (!schema.functions().empty() && rng.Chance(70)) {
    const schema::FunctionDecl& fn = *rng.Pick(schema.functions());
    for (const schema::Param& param : fn.params()) {
      const types::Type* type = param.type;
      if (type->is_class()) {
        args.push_back(bind(schema.FindClass(type->class_name())));
      } else if (type->kind() == types::TypeKind::kInt) {
        args.push_back(rng.Chance(50) ? "-5" : "3 * 2");
      } else if (type->kind() == types::TypeKind::kBool) {
        args.push_back("not false");
      } else if (type->kind() == types::TypeKind::kString) {
        args.push_back("\"s\\\"t\"");
      } else {
        args.push_back("null");
      }
    }
    if (rng.Chance(10)) args.push_back("1");
    call = common::StrCat(fn.name(), "(", common::Join(args, ", "), ")");
  }
  if (first_class == nullptr) bind(rng.Pick(schema.classes()).get());
  std::vector<std::string> items;
  if (!call.empty()) items.push_back(call);
  const std::vector<schema::AttributeDef>& attrs = first_class->attributes();
  const schema::AttributeDef& attr = rng.Pick(attrs);
  if (items.empty() || rng.Chance(50)) {
    items.push_back(common::StrCat("r_", attr.name, "(", first_var, ")"));
  }
  if (rng.Chance(20)) {
    items.push_back(common::StrCat("(select r_", rng.Pick(attrs).name,
                                   "(y) from y in ", first_class->name(),
                                   ")"));
  }
  if (rng.Chance(15)) items.push_back("let t = 1, u = t in +(t, u) end");
  std::string where;
  if (rng.Chance(50)) {
    where = attr.type->kind() == types::TypeKind::kInt
                ? common::StrCat(" where r_", attr.name, "(", first_var,
                                 ") >= 3 and not false")
                : " where true or false";
  }
  return common::StrCat("select ", common::Join(items, ", "), " from ",
                        common::Join(from, ", "), where);
}

inline uint64_t Fold(uint64_t hash, std::string_view field) {
  return common::Fnv1a64Field(field, hash);
}

inline uint64_t FoldStatus(uint64_t hash, const common::Status& status) {
  return Fold(Fold(hash, "error"), status.ToString());
}

// Folds one workspace input into `hash` and checks its round trip.
inline uint64_t FoldWorkspace(uint64_t hash, const std::string& text,
                              const std::string& where, FrontendTally& tally) {
  auto loaded = text::LoadWorkspace(text);
  if (!loaded.ok()) {
    ++tally.rejected[0];
    return FoldStatus(hash, loaded.status());
  }
  ++tally.accepted[0];
  const std::string dump = text::FormatWorkspace(loaded.value());
  hash = Fold(Fold(hash, dump),
              common::StrCat(loaded.value().schema->fingerprint()));
  auto reloaded = text::LoadWorkspace(dump);
  if (!reloaded.ok()) {
    tally.round_trip_failures.push_back(common::StrCat(
        where, ": the dump fails to load: ", reloaded.status().ToString()));
  } else if (text::FormatWorkspace(reloaded.value()) != dump) {
    tally.round_trip_failures.push_back(
        common::StrCat(where, ": the reloaded dump differs"));
  }
  return hash;
}

inline uint64_t FoldRequirement(uint64_t hash, const std::string& text,
                                FrontendTally& tally) {
  auto parsed = core::ParseRequirementString(text);
  if (!parsed.ok()) {
    ++tally.rejected[1];
    return FoldStatus(hash, parsed.status());
  }
  ++tally.accepted[1];
  return Fold(hash, parsed.value().ToString());
}

inline uint64_t FoldQuery(uint64_t hash, const std::string& text,
                          const schema::Schema& schema, FrontendTally& tally) {
  auto parsed = query::ParseQueryString(text);
  if (!parsed.ok()) {
    ++tally.rejected[2];
    return FoldStatus(hash, parsed.status());
  }
  ++tally.accepted[2];
  query::SelectQuery& parsed_query = *parsed.value();
  hash = Fold(hash, parsed_query.ToString());
  return Fold(hash, query::BindQuery(parsed_query, schema).ToString());
}

}  // namespace frontend

// Hashes every input the corpus derives from seed `seed`, whose clean
// workspace is `text`; `other` is the splice partner. `text` must load.
inline FrontendHashes HashFrontend(uint64_t seed, const std::string& text,
                                   const std::string& other,
                                   FrontendTally& tally) {
  using frontend::Mutation;
  FrontendHashes out;
  const std::string where = common::StrCat("seed ", seed);
  auto clean = text::LoadWorkspace(text);
  if (!clean.ok()) {
    tally.round_trip_failures.push_back(
        common::StrCat(where, ": the clean workspace fails to load: ",
                       clean.status().ToString()));
    return out;
  }
  const schema::Schema& schema = *clean.value().schema;
  std::vector<std::string> users;
  for (const schema::User* user : clean.value().users->users()) {
    users.push_back(user->name());
  }
  Rng rng(seed ^ 0xf207e7dc0a9b5e11ull);

  // Workspaces.
  uint64_t hash = common::Fnv1a64("workspaces");
  hash = frontend::FoldWorkspace(hash, text, where + " clean", tally);
  const std::string dressed = frontend::Dress(rng, text, schema);
  hash = frontend::FoldWorkspace(hash, dressed, where + " dressed", tally);
  const Mutation mutations[] = {
      Mutation::kFlip,    Mutation::kFlip,        Mutation::kDelete,
      Mutation::kTruncate, Mutation::kKeyword,    Mutation::kPunctuation,
      Mutation::kLiteral, Mutation::kSplice};
  int index = 0;
  for (Mutation mutation : mutations) {
    hash = frontend::FoldWorkspace(
        hash, frontend::Mutate(mutation, rng, dressed, other),
        common::StrCat(where, " mutation ", index++), tally);
  }
  out.workspaces = hash;

  // Requirements.
  hash = common::Fnv1a64("requirements");
  std::vector<std::string> requirements;
  for (int i = 0; i < 4; ++i) {
    requirements.push_back(frontend::RequirementText(rng, schema, users));
  }
  for (const std::string& requirement : requirements) {
    hash = frontend::FoldRequirement(hash, requirement, tally);
  }
  for (size_t i = 0; i < requirements.size(); ++i) {
    hash = frontend::FoldRequirement(
        hash,
        frontend::Mutate(frontend::AnyMutation(rng), rng, requirements[i],
                         requirements[(i + 1) % requirements.size()]),
        tally);
  }
  out.requirements = hash;

  // Queries.
  hash = common::Fnv1a64("queries");
  std::vector<std::string> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(frontend::QueryText(rng, schema));
  }
  for (const std::string& text_query : queries) {
    hash = frontend::FoldQuery(hash, text_query, schema, tally);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    hash = frontend::FoldQuery(
        hash,
        frontend::Mutate(frontend::AnyMutation(rng), rng, queries[i],
                         queries[(i + 1) % queries.size()]),
        schema, tally);
  }
  out.queries = hash;

  // Capabilities.
  hash = common::Fnv1a64("capabilities");
  core::AnalysisSession session(schema, *clean.value().users);
  const std::string user = users.empty() ? "nobody" : users.front();
  std::vector<std::string> names;
  for (const frontend::Name& callable : frontend::Callables(schema)) {
    names.push_back(callable.name);
  }
  const std::string& first_attr =
      schema.classes().front()->attributes().front().name;
  for (std::string name :
       {std::string("r_"), std::string("w_"), std::string("r_nosuch"),
        std::string("nosuch"), std::string(),
        "r_" + schema.classes().front()->name(), "R_" + first_attr,
        "r_" + first_attr + "_"}) {
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) {
    hash = frontend::Fold(hash, name);
    hash = frontend::Fold(hash, session.AddCapability(user, name).ToString());
  }
  hash = frontend::Fold(
      hash, session.AddCapability("no_such_user", names.front()).ToString());
  out.capabilities = hash;
  return out;
}

}  // namespace oodbsec::corpus

#endif  // OODBSEC_TESTS_FRONTEND_CORPUS_H_
