// Reverse lookup of enum display names.
//
// Every serialized enum has one `*_name(E)` function giving its stable
// wire name. The inverse is derived from that function here instead of
// being kept by hand, so the two directions cannot drift apart.
// Enumerators must run contiguously from 0 to `last`.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace karma::util {

/// The enumerator in [0, last] whose name is `name`, or nullopt.
template <class E>
std::optional<E> enum_from_name(std::string_view name,
                                const char* (*name_of)(E), E last) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const auto e = static_cast<E>(i);
    if (name == name_of(e)) return e;
  }
  return std::nullopt;
}

/// As above, but an unknown name throws std::runtime_error
/// ("unknown <what> '<name>'"), the serializers' error channel.
template <class E>
E enum_from_name(std::string_view name, const char* (*name_of)(E), E last,
                 const char* what) {
  if (const auto e = enum_from_name(name, name_of, last)) return *e;
  throw std::runtime_error(std::string("unknown ") + what + " '" +
                           std::string(name) + "'");
}

}  // namespace karma::util
