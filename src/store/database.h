// The mutable object store: a database state in the sense of the paper
// (§2): per-class extents of mutable objects with typed attribute slots.
//
// Objects are created with zero-values for their attributes (0, false,
// "", null for class types, {} for set types). Reads and writes are type
// checked against the schema. Clone() produces an independent snapshot,
// which the semantic oracle uses to enumerate initial database states.
#ifndef OODBSEC_STORE_DATABASE_H_
#define OODBSEC_STORE_DATABASE_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "schema/schema.h"
#include "types/value.h"

namespace oodbsec::store {

class Database {
 public:
  explicit Database(const schema::Schema& schema);

  // Copyable only through Clone() to make snapshotting explicit.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const schema::Schema& schema() const { return *schema_; }

  // Creates an instance of `class_name` with zero-valued attributes and
  // appends it to the class extent.
  common::Result<types::Oid> CreateObject(std::string_view class_name);

  // The extent of `class_name` in creation order; empty for unknown
  // classes.
  const std::vector<types::Oid>& Extent(std::string_view class_name) const;
  const std::vector<types::Oid>& Extent(const schema::ClassDef& cls) const;

  // The class of `oid`, or nullptr for unknown oids.
  const schema::ClassDef* ClassOf(types::Oid oid) const;

  // Reads attribute `attribute` of `oid`.
  common::Result<types::Value> ReadAttribute(types::Oid oid,
                                             std::string_view attribute) const;

  // Writes attribute `attribute` of `oid`; the value must be assignable
  // to the attribute's declared type.
  common::Status WriteAttribute(types::Oid oid, std::string_view attribute,
                                types::Value value);

  // The evaluator's resolved forms of the two calls above: the
  // attribute is attributes()[slot] of `cls` (lang::CallExpr's
  // attribute slot). The object must exist and be an instance of `cls`;
  // otherwise they fail with the by-name calls' NotFound. A read copies
  // the value into `out`.
  common::Status ReadSlot(types::Oid oid, const schema::ClassDef& cls,
                          int slot, types::Value& out) const;
  common::Status WriteSlot(types::Oid oid, const schema::ClassDef& cls,
                           int slot, types::Value value);

  // Deep snapshot sharing the same schema.
  Database Clone() const;

  // Total number of live objects.
  size_t object_count() const { return objects_.size(); }

  // The zero value of `type`: 0, false, "", null, or {}.
  static types::Value ZeroValue(const types::Type* type);

 private:
  struct ObjectRecord {
    const schema::ClassDef* cls;
    std::vector<types::Value> attributes;
  };

  const ObjectRecord* FindObject(types::Oid oid) const;
  static common::Status NoSuchAttribute(const ObjectRecord& record,
                                        std::string_view attribute);
  // Stores `value` in attribute `index` of `record` after the dynamic
  // type check.
  static common::Status Store(ObjectRecord& record, size_t index,
                              types::Value value);

  const schema::Schema* schema_;
  std::unordered_map<uint64_t, ObjectRecord> objects_;
  std::unordered_map<const schema::ClassDef*, std::vector<types::Oid>>
      extents_;
  uint64_t next_oid_ = 1;
};

}  // namespace oodbsec::store

#endif  // OODBSEC_STORE_DATABASE_H_
