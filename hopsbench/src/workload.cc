#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace hopsbench {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

void AppendInt(int64_t value, std::string* out) {
  char buffer[24];
  const int n = std::snprintf(buffer, sizeof(buffer), "%lld",
                              static_cast<long long>(value));
  out->append(buffer, static_cast<size_t>(n));
}

void AppendDouble(double value, std::string* out) {
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer, static_cast<size_t>(n));
}

void AppendColumnRef(const ColumnDef& column, std::string* out) {
  *out += "{\"table\":\"";
  *out += column.table;
  *out += "\",\"column\":\"";
  *out += column.column;
  *out += "\"}";
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (uint64_t& word : s_) word = SplitMix64(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t bound) {
  // Lemire's multiply-shift; the tiny bias is irrelevant here and the
  // result is still a pure function of the seed.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

ZipfSampler::ZipfSampler(size_t n, double skew) : cdf_(n) {
  double running = 0;
  for (size_t k = 0; k < n; ++k) {
    running += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf_[k] = running;
  }
  for (double& c : cdf_) c /= running;
}

size_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

std::vector<int64_t> ZipfCounts(int64_t domain, double skew, int64_t tuples,
                                Rng& rng) {
  const size_t n = static_cast<size_t>(domain);
  std::vector<double> weights(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), skew);
    total += weights[k];
  }
  std::vector<size_t> arrangement(n);
  std::iota(arrangement.begin(), arrangement.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(arrangement[i - 1], arrangement[rng.Below(i)]);
  }
  std::vector<int64_t> counts(n);
  for (size_t k = 0; k < n; ++k) {
    const double share = static_cast<double>(tuples) * weights[k] / total;
    counts[arrangement[k]] = std::max<int64_t>(1, std::llround(share));
  }
  return counts;
}

std::vector<ColumnDef> MakeCatalog(const CatalogShape& shape, Rng& rng) {
  std::vector<ColumnDef> catalog;
  for (size_t t = 0; t < shape.tables; ++t) {
    for (size_t c = 0; c < shape.columns_per_table; ++c) {
      const double skew =
          shape.skew_low + (shape.skew_high - shape.skew_low) * rng.Unit();
      ColumnDef def;
      def.table = "t" + std::to_string(t);
      def.column = "c" + std::to_string(c);
      def.truth = ColumnTruth(ZipfCounts(shape.domain, skew, shape.tuples, rng));
      catalog.push_back(std::move(def));
    }
  }
  return catalog;
}

bool operator==(const Spec& x, const Spec& y) {
  return x.kind == y.kind && x.column == y.column && x.right == y.right &&
         x.a == y.a && x.b == y.b && x.values == y.values;
}

Spec DrawSpec(const SpecMix& mix, const std::vector<ColumnDef>& catalog,
              Rng& rng) {
  const double weights[] = {mix.equality, mix.not_equals, mix.in, mix.range,
                            mix.join};
  double total = 0;
  for (double w : weights) total += w;
  double pick = rng.Unit() * total;
  size_t kind = 0;
  while (kind + 1 < std::size(weights) && pick >= weights[kind]) {
    pick -= weights[kind];
    ++kind;
  }
  Spec spec;
  spec.kind = static_cast<Spec::Kind>(kind);
  spec.column = static_cast<uint32_t>(rng.Below(catalog.size()));
  const int64_t domain = catalog[spec.column].truth.domain();
  switch (spec.kind) {
    case Spec::Kind::kEquality:
    case Spec::Kind::kNotEquals:
      spec.a = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(domain)));
      break;
    case Spec::Kind::kIn:
      for (size_t i = 0; i < mix.in_list; ++i) {
        spec.values.push_back(
            static_cast<int64_t>(rng.Below(static_cast<uint64_t>(domain))));
      }
      break;
    case Spec::Kind::kRange: {
      const uint64_t widest = std::max<uint64_t>(
          1, static_cast<uint64_t>(mix.max_range_fraction *
                                   static_cast<double>(domain)));
      const int64_t width = static_cast<int64_t>(rng.Below(widest));
      spec.a = static_cast<int64_t>(
          rng.Below(static_cast<uint64_t>(std::max<int64_t>(1, domain - width))));
      spec.b = spec.a + width;
      break;
    }
    case Spec::Kind::kJoin:
      spec.right = static_cast<uint32_t>(rng.Below(catalog.size() - 1));
      if (spec.right >= spec.column) ++spec.right;
      break;
  }
  return spec;
}

int64_t TruthOf(const Spec& spec, const std::vector<ColumnDef>& catalog) {
  const ColumnTruth& truth = catalog[spec.column].truth;
  switch (spec.kind) {
    case Spec::Kind::kEquality:
      return truth.Equality(spec.a);
    case Spec::Kind::kNotEquals:
      return truth.NotEquals(spec.a);
    case Spec::Kind::kIn:
      return truth.In(spec.values);
    case Spec::Kind::kRange:
      return truth.Range(spec.a, spec.b);
    case Spec::Kind::kJoin:
      return JoinSize(truth, catalog[spec.right].truth);
  }
  return 0;
}

hops::Result<hops::EstimateSpec> ToEstimateSpec(
    const Spec& spec, const std::vector<ColumnDef>& catalog,
    const hops::CatalogSnapshot& snapshot) {
  const ColumnDef& def = catalog[spec.column];
  HOPS_ASSIGN_OR_RETURN(hops::ColumnId id,
                        snapshot.Resolve(def.table, def.column));
  switch (spec.kind) {
    case Spec::Kind::kEquality:
      return hops::EstimateSpec::Equality(id, hops::Value(spec.a));
    case Spec::Kind::kNotEquals:
      return hops::EstimateSpec::NotEquals(id, hops::Value(spec.a));
    case Spec::Kind::kIn: {
      std::vector<hops::Value> values;
      for (int64_t v : spec.values) values.emplace_back(v);
      return hops::EstimateSpec::In(id, std::move(values));
    }
    case Spec::Kind::kRange:
      return hops::EstimateSpec::Range(id, hops::RangeBounds{spec.a, spec.b});
    case Spec::Kind::kJoin: {
      const ColumnDef& right = catalog[spec.right];
      HOPS_ASSIGN_OR_RETURN(hops::ColumnId right_id,
                            snapshot.Resolve(right.table, right.column));
      return hops::EstimateSpec::Join(id, right_id);
    }
  }
  return hops::Status::InvalidArgument("unknown spec kind");
}

hops::net::WireSpec ToWireSpec(const Spec& spec,
                               const std::vector<ColumnDef>& catalog) {
  using Kind = hops::net::WireSpec::Kind;
  hops::net::WireSpec wire;
  wire.table = catalog[spec.column].table;
  wire.column = catalog[spec.column].column;
  wire.a = spec.a;
  wire.b = spec.b;
  switch (spec.kind) {
    case Spec::Kind::kEquality:
      wire.kind = Kind::kEquality;
      break;
    case Spec::Kind::kNotEquals:
      wire.kind = Kind::kNotEquals;
      break;
    case Spec::Kind::kRange:
      wire.kind = Kind::kRange;
      break;
    case Spec::Kind::kJoin:
      wire.kind = Kind::kJoin;
      wire.right_table = catalog[spec.right].table;
      wire.right_column = catalog[spec.right].column;
      break;
    case Spec::Kind::kIn:
      std::abort();  // the binary frame has no IN form
  }
  return wire;
}

namespace {

// The JSON object for `spec`, in the shape /estimate and /feedback take.
void AppendSpecJson(const Spec& spec, const std::vector<ColumnDef>& catalog,
                    std::string* out) {
  const ColumnDef& def = catalog[spec.column];
  static constexpr const char* kKinds[] = {"equality", "not_equals", "in",
                                           "range", "join"};
  *out += "{\"kind\":\"";
  *out += kKinds[static_cast<size_t>(spec.kind)];
  *out += "\",";
  if (spec.kind == Spec::Kind::kJoin) {
    *out += "\"left\":";
    AppendColumnRef(def, out);
    *out += ",\"right\":";
    AppendColumnRef(catalog[spec.right], out);
    out->push_back('}');
    return;
  }
  *out += "\"table\":\"";
  *out += def.table;
  *out += "\",\"column\":\"";
  *out += def.column;
  *out += "\",";
  switch (spec.kind) {
    case Spec::Kind::kEquality:
    case Spec::Kind::kNotEquals:
      *out += "\"value\":";
      AppendInt(spec.a, out);
      break;
    case Spec::Kind::kIn:
      *out += "\"values\":[";
      for (size_t i = 0; i < spec.values.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendInt(spec.values[i], out);
      }
      out->push_back(']');
      break;
    case Spec::Kind::kRange:
      *out += "\"low\":";
      AppendInt(spec.a, out);
      *out += ",\"high\":";
      AppendInt(spec.b, out);
      break;
    case Spec::Kind::kJoin:
      break;
  }
  out->push_back('}');
}

}  // namespace

std::string EstimateRequestJson(std::span<const Spec> specs,
                                const std::vector<ColumnDef>& catalog) {
  std::string out = "{\"specs\":[";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendSpecJson(specs[i], catalog, &out);
  }
  out += "]}";
  return out;
}

std::string UpdateRequestJson(std::span<const Delta> deltas,
                              const std::vector<ColumnDef>& catalog) {
  std::string out = "{\"updates\":[";
  for (size_t i = 0; i < deltas.size(); ++i) {
    const ColumnDef& def = catalog[deltas[i].column];
    if (i > 0) out.push_back(',');
    out += "{\"table\":\"";
    out += def.table;
    out += "\",\"column\":\"";
    out += def.column;
    out += "\",\"value\":";
    AppendInt(deltas[i].value, &out);
    out += ",\"weight\":";
    AppendInt(deltas[i].weight, &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string FeedbackRequestJson(std::span<const Spec> specs,
                                std::span<const double> estimated,
                                std::span<const double> actual,
                                const std::vector<ColumnDef>& catalog) {
  std::string out = "{\"reports\":[";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendSpecJson(specs[i], catalog, &out);
    out.pop_back();  // reopen the spec object to add the outcome
    out += ",\"estimated\":";
    AppendDouble(estimated[i], &out);
    out += ",\"actual\":";
    AppendDouble(actual[i], &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

bool ParseEstimateResults(std::string_view body, std::vector<double>* out) {
  out->clear();
  const size_t results = body.find("\"results\"");
  if (results == std::string_view::npos) return false;
  size_t pos = body.find('[', results);
  if (pos == std::string_view::npos) return false;
  // Result objects are flat ({"estimate": x} or {"error": "..."}), so a
  // brace scan that skips string contents finds each slot.
  bool in_string = false;
  size_t object_start = std::string_view::npos;
  for (++pos; pos < body.size(); ++pos) {
    const char ch = body[pos];
    if (in_string) {
      if (ch == '\\') {
        ++pos;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      object_start = pos;
    } else if (ch == '}') {
      if (object_start == std::string_view::npos) return false;
      const std::string_view object =
          body.substr(object_start, pos - object_start);
      const size_t key = object.find("\"estimate\"");
      double value = std::numeric_limits<double>::quiet_NaN();
      if (key != std::string_view::npos) {
        const size_t colon = object.find(':', key);
        if (colon == std::string_view::npos) return false;
        const std::string number(object.substr(colon + 1));
        char* end = nullptr;
        value = std::strtod(number.c_str(), &end);
        if (end == number.c_str()) return false;
      }
      out->push_back(value);
      object_start = std::string_view::npos;
    } else if (ch == ']') {
      return true;
    }
  }
  return false;
}

}  // namespace hopsbench
