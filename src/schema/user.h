// Users and capability lists (paper §2): the database records, per user,
// the set of access-function and special-function names the user may
// invoke in queries. Access control is purely name based
// (name-dependent control, paper §5).
#ifndef OODBSEC_SCHEMA_USER_H_
#define OODBSEC_SCHEMA_USER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "schema/schema.h"

namespace oodbsec::schema {

class User {
 public:
  explicit User(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::set<std::string>& capabilities() const { return capabilities_; }

  void Grant(std::string function_name) {
    capabilities_.insert(std::move(function_name));
  }
  void Revoke(std::string_view function_name) {
    capabilities_.erase(std::string(function_name));
  }
  bool MayInvoke(std::string_view function_name) const {
    return capabilities_.contains(std::string(function_name));
  }

 private:
  std::string name_;
  std::set<std::string> capabilities_;
};

// The user table of a database. Every capability must name a callable
// that resolves against the schema.
class UserRegistry {
 public:
  explicit UserRegistry(const Schema& schema) : schema_(schema) {}

  // Creates a user holding `grants`, in one lookup. Fails on a
  // duplicate name, or at the first grant that resolves to nothing in
  // the schema; that error reads as Grant's, in the context "granting
  // to '<name>'", and the user keeps the grants before it.
  common::Status AddUser(std::string name,
                         std::vector<std::string> grants = {});

  // Grants `function_name` to `user`; fails if either is unknown or the
  // name resolves to nothing in the schema.
  common::Status Grant(std::string_view user, std::string function_name);

  const User* Find(std::string_view name) const;
  std::vector<const User*> users() const;

 private:
  const Schema& schema_;
  std::map<std::string, User, std::less<>> users_;
};

}  // namespace oodbsec::schema

#endif  // OODBSEC_SCHEMA_USER_H_
