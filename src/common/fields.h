/// \file
/// The field schema of every serialized struct (DESIGN.md §10): each one
/// declares, beside itself, a single
///
///   template <typename V, typename S>
///   FieldsOf<S, Foo> VisitFields(V& v, S& foo) {
///     v("alpha", foo.alpha);
///     v("beta", foo.beta);
///   }
///
/// listing its members in wire and checkpoint order, and each serialized
/// enum declares one spelling table (`EnumSpellings`). The archives — the
/// JSON writer/reader of api/codec.cc and the binary writer/reader of
/// service/checkpoint.cc — are visitors over these lists, so adding a field
/// is one line in its struct's VisitFields and nothing else. This is the
/// `ar & member` idiom of boost serialization: one member list drives
/// every archive.

#ifndef VERITAS_COMMON_FIELDS_H_
#define VERITAS_COMMON_FIELDS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace veritas {

/// Return type of a VisitFields overload: void, and enabled only when
/// `Self` is `T` or `const T`, so one field list serves readers (which
/// assign through the references) and writers (which only read them).
template <typename Self, typename T>
using FieldsOf = std::enable_if_t<std::is_same_v<std::remove_const_t<Self>, T>>;

/// Spelling table of a serialized enum: entry i spells the enumerator whose
/// value is i. Declared as `constexpr Spellings<N> EnumSpellings(E)`.
template <size_t N>
using Spellings = std::array<const char*, N>;

/// The spelling of `value`; empty when out of the table's range.
template <typename E>
const char* EnumName(E value) {
  static constexpr auto names = EnumSpellings(E{});
  const auto index = static_cast<size_t>(value);
  return index < names.size() ? names[index] : "";
}

/// The enumerator spelled `name`; false (leaving *out) when unknown.
template <typename E>
bool EnumFromName(const std::string& name, E* out) {
  static constexpr auto names = EnumSpellings(E{});
  for (size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) {
      *out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

/// The enumerator with value `index`; false (leaving *out) when out of
/// range.
template <typename E>
bool EnumFromIndex(uint64_t index, E* out) {
  if (index >= EnumSpellings(E{}).size()) return false;
  *out = static_cast<E>(index);
  return true;
}

}  // namespace veritas

#endif  // VERITAS_COMMON_FIELDS_H_
