// OVSDB atomic values (RFC 7047 §5.1): integer, real, boolean, string, uuid.
#ifndef NERPA_OVSDB_ATOM_H_
#define NERPA_OVSDB_ATOM_H_

#include <compare>
#include <cstdint>
#include <string>
#include <variant>

#include "common/json.h"
#include "common/status.h"
#include "ovsdb/uuid.h"

namespace nerpa::ovsdb {

enum class AtomicType { kInteger, kReal, kBoolean, kString, kUuid };

/// Name as used in schemas ("integer", "real", ...).
const char* AtomicTypeName(AtomicType type);
Result<AtomicType> AtomicTypeFromName(std::string_view name);

/// A single OVSDB atomic value.  Atoms are totally ordered (first by type,
/// then by value) so Datum can keep sets/maps canonically sorted.
class Atom {
 public:
  Atom() : rep_(int64_t{0}) {}
  explicit Atom(int64_t v) : rep_(v) {}
  explicit Atom(double v) : rep_(v) {}
  explicit Atom(bool v) : rep_(v) {}
  explicit Atom(std::string v) : rep_(std::move(v)) {}
  explicit Atom(const char* v) : rep_(std::string(v)) {}
  explicit Atom(Uuid v) : rep_(v) {}

  AtomicType type() const {
    switch (rep_.index()) {
      case 0: return AtomicType::kInteger;
      case 1: return AtomicType::kReal;
      case 2: return AtomicType::kBoolean;
      case 3: return AtomicType::kString;
      default: return AtomicType::kUuid;
    }
  }

  int64_t integer() const { return std::get<int64_t>(rep_); }
  double real() const { return std::get<double>(rep_); }
  bool boolean() const { return std::get<bool>(rep_); }
  const std::string& string() const { return std::get<std::string>(rep_); }
  const Uuid& uuid() const { return std::get<Uuid>(rep_); }

  bool operator==(const Atom& o) const { return rep_ == o.rep_; }
  bool operator<(const Atom& o) const;
  bool operator!=(const Atom& o) const { return !(*this == o); }

  /// Agrees with ==, for hashed unique indexes.
  size_t Hash() const { return std::hash<decltype(rep_)>{}(rep_); }

  /// JSON wire form: scalars as-is, uuids as ["uuid","<text>"].
  Json ToJson() const;

  /// Parses the wire form, coercing to `expected` (so 1 is a valid real).
  /// ["named-uuid", name] is resolved through `named_uuids` when non-null.
  static Result<Atom> FromJson(
      const Json& json, AtomicType expected,
      const std::map<std::string, Uuid>* named_uuids = nullptr);

  /// Debug form ("\"abc\"", "42", "<uuid>").
  std::string ToString() const;

 private:
  std::variant<int64_t, double, bool, std::string, Uuid> rep_;
};

}  // namespace nerpa::ovsdb

#endif  // NERPA_OVSDB_ATOM_H_
