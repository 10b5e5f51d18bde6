#include "ovsdb/datum.h"

#include <algorithm>

#include "common/strings.h"

namespace nerpa::ovsdb {

Datum Datum::Scalar(Atom atom) {
  Datum d;
  d.keys_.push_back(std::move(atom));
  return d;
}

Datum Datum::Set(std::vector<Atom> atoms) {
  Datum d;
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  d.keys_ = std::move(atoms);
  return d;
}

Datum Datum::Map(std::vector<std::pair<Atom, Atom>> pairs) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  Datum d;
  for (auto& [key, value] : pairs) {
    if (!d.keys_.empty() && d.keys_.back() == key) {
      d.values_.back() = std::move(value);  // last duplicate wins
    } else {
      d.keys_.push_back(std::move(key));
      d.values_.push_back(std::move(value));
    }
  }
  return d;
}

bool Datum::ContainsKey(const Atom& key) const {
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

std::optional<Atom> Datum::MapGet(const Atom& key) const {
  if (!is_map()) return std::nullopt;
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || !(*it == key)) return std::nullopt;
  return values_[static_cast<size_t>(it - keys_.begin())];
}

void Datum::InsertKey(Atom key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it != keys_.end() && *it == key) return;
  keys_.insert(it, std::move(key));
}

void Datum::InsertPair(Atom key, Atom value) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  size_t index = static_cast<size_t>(it - keys_.begin());
  if (it != keys_.end() && *it == key) {
    values_[index] = std::move(value);
    return;
  }
  keys_.insert(it, std::move(key));
  values_.insert(values_.begin() + static_cast<long>(index), std::move(value));
}

void Datum::EraseKey(const Atom& key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || !(*it == key)) return;
  size_t index = static_cast<size_t>(it - keys_.begin());
  keys_.erase(it);
  if (!values_.empty()) {
    values_.erase(values_.begin() + static_cast<long>(index));
  }
}

Status Datum::CheckType(const ColumnType& type) const {
  if (is_map() != type.is_map() && !empty()) {
    return TypeError("datum map-ness does not match column type");
  }
  if (size() < type.min || size() > type.max) {
    return ConstraintError(StrFormat(
        "datum has %zu elements, column allows [%u, %u]", size(), type.min,
        type.max));
  }
  for (const Atom& key : keys_) {
    NERPA_RETURN_IF_ERROR(type.key.CheckAtom(key));
  }
  if (type.is_map()) {
    for (const Atom& value : values_) {
      NERPA_RETURN_IF_ERROR(type.value->CheckAtom(value));
    }
  }
  return Status::Ok();
}

Json Datum::ToJson() const {
  if (is_map()) {
    Json::Array pairs;
    for (size_t i = 0; i < keys_.size(); ++i) {
      pairs.push_back(
          Json(Json::Array{keys_[i].ToJson(), values_[i].ToJson()}));
    }
    return Json(Json::Array{Json("map"), Json(std::move(pairs))});
  }
  if (keys_.size() == 1) return keys_[0].ToJson();
  Json::Array atoms;
  for (const Atom& atom : keys_) atoms.push_back(atom.ToJson());
  return Json(Json::Array{Json("set"), Json(std::move(atoms))});
}

Result<Datum> Datum::FromJson(const Json& json, const ColumnType& type,
                              const std::map<std::string, Uuid>* named_uuids) {
  // ["set", [...]] and ["map", [[k,v],...]] wrappers.
  if (json.is_array() && json.as_array().size() == 2 &&
      json.as_array()[0].is_string()) {
    const std::string& tag = json.as_array()[0].as_string();
    const Json& body = json.as_array()[1];
    if (tag == "set") {
      if (!body.is_array()) return ParseError("set body must be an array");
      std::vector<Atom> atoms;
      for (const Json& item : body.as_array()) {
        NERPA_ASSIGN_OR_RETURN(Atom atom,
                               Atom::FromJson(item, type.key.type,
                                              named_uuids));
        atoms.push_back(std::move(atom));
      }
      Datum out = Set(std::move(atoms));
      NERPA_RETURN_IF_ERROR(out.CheckType(type));
      return out;
    }
    if (tag == "map") {
      if (!type.is_map()) return ParseError("map datum for non-map column");
      if (!body.is_array()) return ParseError("map body must be an array");
      std::vector<std::pair<Atom, Atom>> pairs;
      for (const Json& item : body.as_array()) {
        if (!item.is_array() || item.as_array().size() != 2) {
          return ParseError("map entry must be a [key, value] pair");
        }
        NERPA_ASSIGN_OR_RETURN(
            Atom key,
            Atom::FromJson(item.as_array()[0], type.key.type, named_uuids));
        NERPA_ASSIGN_OR_RETURN(
            Atom value,
            Atom::FromJson(item.as_array()[1], type.value->type, named_uuids));
        pairs.emplace_back(std::move(key), std::move(value));
      }
      Datum out = Map(std::move(pairs));
      NERPA_RETURN_IF_ERROR(out.CheckType(type));
      return out;
    }
    // Fall through: ["uuid", ...] / ["named-uuid", ...] are scalar atoms.
  }
  NERPA_ASSIGN_OR_RETURN(Atom atom,
                         Atom::FromJson(json, type.key.type, named_uuids));
  Datum out = Scalar(std::move(atom));
  NERPA_RETURN_IF_ERROR(out.CheckType(type));
  return out;
}

Status Datum::CoerceTo(const ColumnType& type) {
  if (is_map() && !type.is_map()) {
    return ParseError("map datum for non-map column");
  }
  bool widen = false;  // some integer atom stands in a real position
  auto check = [&widen](const std::vector<Atom>& atoms, AtomicType want) {
    for (const Atom& atom : atoms) {
      if (atom.type() == want) continue;
      if (want == AtomicType::kReal && atom.type() == AtomicType::kInteger) {
        widen = true;
        continue;
      }
      return ParseError(StrFormat("expected %s atom, got %s",
                                  AtomicTypeName(want),
                                  atom.ToJson().Dump().c_str()));
    }
    return Status::Ok();
  };
  NERPA_RETURN_IF_ERROR(check(keys_, type.key.type));
  if (is_map()) NERPA_RETURN_IF_ERROR(check(values_, type.value->type));
  if (widen) {
    auto real = [](const Atom& atom) {
      return atom.type() == AtomicType::kInteger
                 ? Atom(static_cast<double>(atom.integer())) : atom;
    };
    std::vector<std::pair<Atom, Atom>> pairs;
    std::vector<Atom> keys;
    for (size_t i = 0; i < keys_.size(); ++i) {
      Atom key = type.key.type == AtomicType::kReal ? real(keys_[i]) : keys_[i];
      if (!is_map()) {
        keys.push_back(std::move(key));
      } else {
        pairs.emplace_back(std::move(key), type.value->type == AtomicType::kReal
                                               ? real(values_[i]) : values_[i]);
      }
    }
    *this = is_map() ? Map(std::move(pairs)) : Set(std::move(keys));
  }
  return CheckType(type);
}

Datum Datum::Default(const ColumnType& type) {
  if (type.min == 0) return Datum();
  if (type.is_map()) return Datum();  // maps with min>0 have no default
  Atom atom;
  switch (type.key.type) {
    case AtomicType::kInteger: atom = Atom(int64_t{0}); break;
    case AtomicType::kReal: atom = Atom(0.0); break;
    case AtomicType::kBoolean: atom = Atom(false); break;
    case AtomicType::kString: atom = Atom(std::string()); break;
    case AtomicType::kUuid: atom = Atom(Uuid{}); break;
  }
  return Scalar(std::move(atom));
}

std::string Datum::ToString() const {
  if (is_map()) {
    std::string out = "{";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) out += ", ";
      out += keys_[i].ToString() + "=" + values_[i].ToString();
    }
    return out + "}";
  }
  if (keys_.size() == 1) return keys_[0].ToString();
  std::string out = "[";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].ToString();
  }
  return out + "]";
}

size_t Datum::Hash() const {
  size_t hash = keys_.size();
  for (const Atom& atom : keys_) hash = hash * 31 + atom.Hash();
  for (const Atom& atom : values_) hash = hash * 37 + atom.Hash();
  return hash;
}

bool Datum::operator<(const Datum& o) const {
  if (keys_ != o.keys_) {
    return std::lexicographical_compare(keys_.begin(), keys_.end(),
                                        o.keys_.begin(), o.keys_.end());
  }
  return std::lexicographical_compare(values_.begin(), values_.end(),
                                      o.values_.begin(), o.values_.end());
}

}  // namespace nerpa::ovsdb
