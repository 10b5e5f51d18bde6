// OVSDB column values: canonically-sorted sets of atoms, or maps from atom
// to atom (RFC 7047 §5.1 <value>).  Scalars are one-element sets.
#ifndef NERPA_OVSDB_DATUM_H_
#define NERPA_OVSDB_DATUM_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "ovsdb/schema.h"

namespace nerpa::ovsdb {

/// A column value.  Keys are kept sorted and unique; for maps, values_ is
/// parallel to keys_.  Equality/ordering are therefore structural.
class Datum {
 public:
  Datum() = default;

  // Scalar constructors.
  static Datum Scalar(Atom atom);
  static Datum Integer(int64_t v) { return Scalar(Atom(v)); }
  static Datum Real(double v) { return Scalar(Atom(v)); }
  static Datum Boolean(bool v) { return Scalar(Atom(v)); }
  static Datum String(std::string v) { return Scalar(Atom(std::move(v))); }
  static Datum UuidRef(Uuid v) { return Scalar(Atom(v)); }
  static Datum Empty() { return Datum(); }

  /// Builds a set; duplicates are merged.
  static Datum Set(std::vector<Atom> atoms);
  /// Builds a map; duplicate keys keep the last value.
  static Datum Map(std::vector<std::pair<Atom, Atom>> pairs);

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  bool is_map() const { return !values_.empty(); }

  const std::vector<Atom>& keys() const { return keys_; }
  const std::vector<Atom>& values() const { return values_; }

  /// Scalar accessors; require size()==1.
  const Atom& scalar() const { return keys_.at(0); }
  int64_t AsInteger() const { return scalar().integer(); }
  double AsReal() const { return scalar().real(); }
  bool AsBoolean() const { return scalar().boolean(); }
  const std::string& AsString() const { return scalar().string(); }
  const Uuid& AsUuid() const { return scalar().uuid(); }

  bool ContainsKey(const Atom& key) const;
  /// Map lookup; nullopt when absent or not a map.
  std::optional<Atom> MapGet(const Atom& key) const;

  /// Set/map element insertion and removal (used by "mutate" ops).
  void InsertKey(Atom key);
  void InsertPair(Atom key, Atom value);
  void EraseKey(const Atom& key);

  /// Validates the datum against a column type (atom types, constraints,
  /// cardinality).
  Status CheckType(const ColumnType& type) const;

  /// JSON wire form per RFC 7047: scalar atoms inline, sets as
  /// ["set",[...]], maps as ["map",[[k,v],...]].
  Json ToJson() const;
  static Result<Datum> FromJson(
      const Json& json, const ColumnType& type,
      const std::map<std::string, Uuid>* named_uuids = nullptr);

  /// The typed counterpart of FromJson(ToJson(), type), in place: the same
  /// checks with the same status codes, turning integer atoms in real
  /// positions into reals.
  Status CoerceTo(const ColumnType& type);

  /// Default value for a column type: empty for min==0, zero-ish scalar for
  /// required scalars (RFC 7047 default-conversion behaviour).
  static Datum Default(const ColumnType& type);

  std::string ToString() const;

  bool operator==(const Datum& o) const {
    return keys_ == o.keys_ && values_ == o.values_;
  }
  bool operator!=(const Datum& o) const { return !(*this == o); }
  bool operator<(const Datum& o) const;

  /// Agrees with ==, for hashed unique indexes.
  size_t Hash() const;

 private:
  std::vector<Atom> keys_;
  std::vector<Atom> values_;
};

}  // namespace nerpa::ovsdb

#endif  // NERPA_OVSDB_DATUM_H_
