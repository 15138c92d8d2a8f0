#include "schema/user.h"

#include "common/strings.h"

namespace oodbsec::schema {

namespace {

common::Status UnresolvedGrant(std::string_view function_name) {
  return common::NotFoundError(common::StrCat(
      "cannot grant '", function_name, "': no such access function or "
      "special function"));
}

}  // namespace

common::Status UserRegistry::AddUser(std::string name,
                                     std::vector<std::string> grants) {
  auto [it, inserted] = users_.try_emplace(name, name);
  if (!inserted) {
    return common::AlreadyExistsError(
        common::StrCat("duplicate user '", name, "'"));
  }
  for (std::string& grant : grants) {
    if (!schema_.ResolveCallable(grant).ok()) {
      return UnresolvedGrant(grant).WithContext(
          common::StrCat("granting to '", name, "'"));
    }
    it->second.Grant(std::move(grant));
  }
  return common::Status::Ok();
}

common::Status UserRegistry::Grant(std::string_view user,
                                   std::string function_name) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    return common::NotFoundError(common::StrCat("unknown user '", user, "'"));
  }
  if (!schema_.ResolveCallable(function_name).ok()) {
    return UnresolvedGrant(function_name);
  }
  it->second.Grant(std::move(function_name));
  return common::Status::Ok();
}

const User* UserRegistry::Find(std::string_view name) const {
  auto it = users_.find(name);
  return it == users_.end() ? nullptr : &it->second;
}

std::vector<const User*> UserRegistry::users() const {
  std::vector<const User*> out;
  out.reserve(users_.size());
  for (const auto& [_, user] : users_) out.push_back(&user);
  return out;
}

}  // namespace oodbsec::schema
