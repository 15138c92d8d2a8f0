// A hash map keyed by strings that looks up by std::string_view without
// building a std::string: the name indexes of the schema.
#ifndef OODBSEC_COMMON_STRING_MAP_H_
#define OODBSEC_COMMON_STRING_MAP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace oodbsec::common {

struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};

template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

}  // namespace oodbsec::common

#endif  // OODBSEC_COMMON_STRING_MAP_H_
