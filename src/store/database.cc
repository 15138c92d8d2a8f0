#include "store/database.h"

#include "common/strings.h"

namespace oodbsec::store {

using common::Result;
using common::Status;
using types::Oid;
using types::Value;

Database::Database(const schema::Schema& schema) : schema_(&schema) {}

Value Database::ZeroValue(const types::Type* type) {
  switch (type->kind()) {
    case types::TypeKind::kInt:
      return Value::Int(0);
    case types::TypeKind::kBool:
      return Value::Bool(false);
    case types::TypeKind::kString:
      return Value::String("");
    case types::TypeKind::kNull:
    case types::TypeKind::kClass:
      return Value::Null();
    case types::TypeKind::kSet:
      return Value::Set({});
  }
  return Value::Null();
}

Result<Oid> Database::CreateObject(std::string_view class_name) {
  const schema::ClassDef* cls = schema_->FindClass(class_name);
  if (cls == nullptr) {
    return common::NotFoundError(
        common::StrCat("unknown class '", class_name, "'"));
  }
  Oid oid(next_oid_++);
  ObjectRecord record;
  record.cls = cls;
  record.attributes.reserve(cls->attributes().size());
  for (const schema::AttributeDef& attr : cls->attributes()) {
    record.attributes.push_back(ZeroValue(attr.type));
  }
  objects_.emplace(oid.raw(), std::move(record));
  extents_[cls].push_back(oid);
  return oid;
}

const std::vector<Oid>& Database::Extent(std::string_view class_name) const {
  static const std::vector<Oid>& empty = *new std::vector<Oid>();
  const schema::ClassDef* cls = schema_->FindClass(class_name);
  return cls == nullptr ? empty : Extent(*cls);
}

const std::vector<Oid>& Database::Extent(const schema::ClassDef& cls) const {
  static const std::vector<Oid>& empty = *new std::vector<Oid>();
  auto it = extents_.find(&cls);
  return it == extents_.end() ? empty : it->second;
}

const Database::ObjectRecord* Database::FindObject(Oid oid) const {
  auto it = objects_.find(oid.raw());
  return it == objects_.end() ? nullptr : &it->second;
}

const schema::ClassDef* Database::ClassOf(Oid oid) const {
  const ObjectRecord* record = FindObject(oid);
  return record == nullptr ? nullptr : record->cls;
}

Status Database::NoSuchAttribute(const ObjectRecord& record,
                                 std::string_view attribute) {
  return common::NotFoundError(common::StrCat(
      "class '", record.cls->name(), "' has no attribute '", attribute, "'"));
}

Result<Value> Database::ReadAttribute(Oid oid,
                                      std::string_view attribute) const {
  const ObjectRecord* record = FindObject(oid);
  if (record == nullptr) {
    return common::NotFoundError("read of unknown object");
  }
  int index = record->cls->AttributeIndex(attribute);
  if (index < 0) return NoSuchAttribute(*record, attribute);
  return record->attributes[static_cast<size_t>(index)];
}

Status Database::WriteAttribute(Oid oid, std::string_view attribute,
                                Value value) {
  auto it = objects_.find(oid.raw());
  if (it == objects_.end()) {
    return common::NotFoundError("write to unknown object");
  }
  int index = it->second.cls->AttributeIndex(attribute);
  if (index < 0) return NoSuchAttribute(it->second, attribute);
  return Store(it->second, static_cast<size_t>(index), std::move(value));
}

Status Database::ReadSlot(Oid oid, const schema::ClassDef& cls, int slot,
                          Value& out) const {
  const ObjectRecord* record = FindObject(oid);
  if (record == nullptr) {
    return common::NotFoundError("read of unknown object");
  }
  const size_t index = static_cast<size_t>(slot);
  if (record->cls != &cls) {
    return NoSuchAttribute(*record, cls.attributes()[index].name);
  }
  out = record->attributes[index];
  return Status::Ok();
}

Status Database::WriteSlot(Oid oid, const schema::ClassDef& cls, int slot,
                           Value value) {
  auto it = objects_.find(oid.raw());
  if (it == objects_.end()) {
    return common::NotFoundError("write to unknown object");
  }
  const size_t index = static_cast<size_t>(slot);
  if (it->second.cls != &cls) {
    return NoSuchAttribute(it->second, cls.attributes()[index].name);
  }
  return Store(it->second, index, std::move(value));
}

Status Database::Store(ObjectRecord& record, size_t index, Value value) {
  const schema::AttributeDef& attribute = record.cls->attributes()[index];
  const types::Type* declared = attribute.type;
  // Dynamic type check: the stored value must fit the declared type.
  bool ok = false;
  switch (declared->kind()) {
    case types::TypeKind::kInt:
      ok = value.is_int();
      break;
    case types::TypeKind::kBool:
      ok = value.is_bool();
      break;
    case types::TypeKind::kString:
      ok = value.is_string();
      break;
    case types::TypeKind::kNull:
      ok = value.is_null();
      break;
    case types::TypeKind::kClass:
      ok = value.is_object() || value.is_null();
      break;
    case types::TypeKind::kSet:
      ok = value.is_set() || value.is_null();
      break;
  }
  if (!ok) {
    return common::TypeError(common::StrCat(
        "value ", value.ToString(), " does not fit attribute '",
        attribute.name, "' of type ", declared->ToString()));
  }
  record.attributes[index] = std::move(value);
  return Status::Ok();
}

Database Database::Clone() const {
  Database copy(*schema_);
  copy.objects_ = objects_;
  copy.extents_ = extents_;
  copy.next_oid_ = next_oid_;
  return copy;
}

}  // namespace oodbsec::store
