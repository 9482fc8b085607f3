#include "exp/checkpoint.hpp"

#include <cmath>
#include <istream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "exp/schema.hpp"
#include "sim/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace geogossip::exp {

namespace {

// --------------------------------------------------- record reconstruction ----

class RecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint64_t require_uint(const JsonValue& object, std::string_view key) {
  const JsonValue* field = object.get(key);
  if (field == nullptr || !field->is_uint) {
    throw RecordError(std::string("missing unsigned field ") +
                      std::string(key));
  }
  return field->uint_value;
}

std::uint64_t optional_uint(const JsonValue& object, std::string_view key) {
  const JsonValue* field = object.get(key);
  if (field == nullptr) return 0;
  if (!field->is_uint) {
    throw RecordError(std::string("bad unsigned field ") + std::string(key));
  }
  return field->uint_value;
}

double require_double(const JsonValue& object, std::string_view key) {
  const JsonValue* field = object.get(key);
  if (field == nullptr || field->kind != JsonValue::Kind::kNumber) {
    throw RecordError(std::string("missing numeric field ") +
                      std::string(key));
  }
  return field->number;
}

double optional_double(const JsonValue& object, std::string_view key,
                       double fallback) {
  const JsonValue* field = object.get(key);
  if (field == nullptr) return fallback;
  if (field->kind != JsonValue::Kind::kNumber) {
    throw RecordError(std::string("bad numeric field ") + std::string(key));
  }
  return field->number;
}

/// Rebuilds the ReplicateResult a record persists.  Throws RecordError on
/// missing/ill-typed fields or inconsistent transmission counts — the
/// caller counts those lines as malformed and lets the replicate re-run.
ReplicateResult parse_result(const JsonValue& object) {
  ReplicateResult result;
  result.seed = require_uint(object, "seed");
  const JsonValue* converged = object.get("converged");
  if (converged == nullptr || converged->kind != JsonValue::Kind::kBool) {
    throw RecordError("missing bool field converged");
  }
  result.converged = converged->boolean;
  result.final_error = require_double(object, "final_error");
  result.sum_drift = optional_double(object, "sum_drift", 0.0);
  const std::uint64_t total = require_uint(object, "transmissions");
  result.transmissions.by_category[static_cast<std::size_t>(
      sim::TxCategory::kLocal)] = optional_uint(object, "tx_local");
  result.transmissions.by_category[static_cast<std::size_t>(
      sim::TxCategory::kLongRange)] = optional_uint(object, "tx_long_range");
  result.transmissions.by_category[static_cast<std::size_t>(
      sim::TxCategory::kControl)] = optional_uint(object, "tx_control");
  if (result.transmissions.total() != total) {
    // Also rejects pre-category records (total > 0, no breakdown): the
    // category shares could not be re-aggregated faithfully from them.
    throw RecordError("transmission categories do not sum to total");
  }
  result.far_exchanges = optional_uint(object, "far_exchanges");
  result.near_exchanges = optional_uint(object, "near_exchanges");
  if (const JsonValue* metrics = object.get("metrics")) {
    if (metrics->kind != JsonValue::Kind::kObject) {
      throw RecordError("metrics is not an object");
    }
    for (const auto& [key, value] : metrics->members) {
      if (value.kind != JsonValue::Kind::kNumber) {
        throw RecordError("metric value is not a number");
      }
      result.metrics[key] = value.number;
    }
  }
  return result;
}

bool is_blank(std::string_view line) noexcept {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

std::string replicate_record(std::string_view scenario,
                             std::uint64_t master_seed,
                             std::string_view cell_label,
                             std::size_t cell_index, std::uint32_t replicate,
                             const ReplicateResult& result) {
  JsonObject record;
  record.field("record", "replicate")
      .field("schema", kSchemaVersion)
      .field("scenario", scenario)
      .field("master_seed", master_seed)
      .field("cell", cell_label)
      .field("cell_index", cell_index)
      .field("replicate", replicate)
      .field("seed", result.seed)
      .field("converged", result.converged)
      .field("final_error", result.final_error)
      .field("sum_drift", result.sum_drift)
      .field("transmissions", result.transmissions.total());
  if (result.transmissions.total() > 0) {
    // Per-category breakdown: without it a resumed run could not rebuild
    // the local/long-range/control share aggregates bit-identically.
    record
        .field("tx_local", result.transmissions[sim::TxCategory::kLocal])
        .field("tx_long_range",
               result.transmissions[sim::TxCategory::kLongRange])
        .field("tx_control", result.transmissions[sim::TxCategory::kControl]);
  }
  if (result.near_exchanges > 0 || result.far_exchanges > 0) {
    record.field("far_exchanges", result.far_exchanges)
        .field("near_exchanges", result.near_exchanges);
  }
  if (!result.metrics.empty()) {
    JsonObject metrics;
    for (const auto& [key, value] : result.metrics) metrics.field(key, value);
    record.field("metrics", metrics);
  }
  return record.str();
}

Checkpoint::Checkpoint(std::string scenario, std::uint64_t master_seed)
    : scenario_(std::move(scenario)), master_seed_(master_seed) {}

const ReplicateResult* Checkpoint::find(std::size_t cell_index,
                                        std::uint32_t replicate) const {
  const auto it = records_.find(Key{cell_index, replicate});
  return it == records_.end() ? nullptr : &it->second;
}

void Checkpoint::load(std::istream& in) {
  load_text(std::string{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()});
}

void Checkpoint::load_text(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const bool has_newline = newline != std::string::npos;
    const std::string_view line(
        text.data() + pos, (has_newline ? newline : text.size()) - pos);
    pos = has_newline ? newline + 1 : text.size();
    if (is_blank(line)) continue;

    // A final line without its newline is crash debris from a killed
    // writer — any failure below lands in torn_tail instead of malformed.
    // The one exception that succeeds: a tail that parses as a COMPLETE
    // record lost only its '\n' (records close with "}\n" in one write,
    // so no strict prefix of one is itself valid JSON) and is accepted.
    try {
      const JsonValue object = JsonParser(line).parse();
      if (object.kind != JsonValue::Kind::kObject) {
        throw RecordError("line is not an object");
      }
      const JsonValue* record = object.get("record");
      if (record == nullptr || record->kind != JsonValue::Kind::kString ||
          record->text != "replicate") {
        // Per-cell summary lines (no "record" discriminator) and future
        // record kinds interleave legally with replicate records.
        ++stats_.other_lines;
        continue;
      }
      // Schema check BEFORE any payload field is trusted.  Absent stamp =
      // schema-1 legacy record, accepted (version 2 only added the stamp);
      // a present-but-different stamp is a hard error, NOT a skipped line:
      // silently re-running those replicates would mask that the whole
      // file was produced by an incompatible build.
      if (const JsonValue* schema = object.get("schema")) {
        if (!schema->is_uint || schema->uint_value != kSchemaVersion) {
          throw ArgumentError(
              "Checkpoint::load: record carries schema " +
              (schema->is_uint ? std::to_string(schema->uint_value)
                               : std::string("?")) +
              " but this build reads schema " +
              std::to_string(kSchemaVersion) +
              " — refusing to re-ingest records this code cannot "
              "interpret");
        }
      }
      const JsonValue* scenario = object.get("scenario");
      if (scenario == nullptr ||
          scenario->kind != JsonValue::Kind::kString) {
        throw RecordError("missing scenario");
      }
      const std::uint64_t master_seed = require_uint(object, "master_seed");
      if (scenario->text != scenario_ || master_seed != master_seed_) {
        ++stats_.foreign;
        continue;
      }
      const auto cell_index =
          static_cast<std::size_t>(require_uint(object, "cell_index"));
      const auto replicate_raw = require_uint(object, "replicate");
      if (replicate_raw > 0xFFFFFFFFull) {
        throw RecordError("replicate out of range");
      }
      const auto replicate = static_cast<std::uint32_t>(replicate_raw);
      ReplicateResult result = parse_result(object);

      const Key key{cell_index, replicate};
      const auto it = records_.find(key);
      if (it != records_.end()) {
        if (results_equal(it->second, result)) {
          ++stats_.duplicate;
          continue;
        }
        throw ArgumentError(
            "Checkpoint::load: conflicting records for cell_index " +
            std::to_string(cell_index) + " replicate " +
            std::to_string(replicate) +
            " — same key, different payload (corrupted or mismatched "
            "shard files?)");
      }
      records_.emplace(key, std::move(result));
      ++stats_.accepted;
    } catch (const JsonParseError&) {
      if (has_newline) {
        ++stats_.malformed;
      } else {
        stats_.torn_tail = true;
      }
    } catch (const RecordError&) {
      if (has_newline) {
        ++stats_.malformed;
      } else {
        stats_.torn_tail = true;
      }
    }
  }
}

void Checkpoint::load_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  GG_CHECK_ARG(text.has_value(), "Checkpoint: cannot open '" + path + "'");
  load_text(*text);
}

std::shared_ptr<Checkpoint> fold_records(const Scenario& scenario,
                                         const std::vector<std::string>& files,
                                         std::string_view context) {
  auto checkpoint =
      std::make_shared<Checkpoint>(scenario.name, scenario.master_seed);
  for (const std::string& path : files) checkpoint->load_file(path);
  const CheckpointStats& stats = checkpoint->stats();
  if (stats.malformed > 0) {
    log_warn(context, ": skipped ", stats.malformed,
             " malformed line(s) — those replicates will re-run");
  }
  if (stats.foreign > 0) {
    log_warn(context, ": ignored ", stats.foreign,
             " record(s) from another (scenario, master_seed)");
  }
  if (stats.duplicate > 0) {
    log_warn(context, ": collapsed ", stats.duplicate,
             " duplicate record(s)");
  }
  if (stats.torn_tail) {
    log_warn(context, ": tolerated a torn final line (killed writer)");
  }
  return checkpoint;
}

namespace {

/// Value equality where NaN == NaN: two loads of the same record must
/// compare equal (duplicate), never conflicting, even when the replicate
/// produced a NaN.
bool same_double(double a, double b) noexcept {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

bool results_equal(const ReplicateResult& a,
                   const ReplicateResult& b) noexcept {
  if (!(a.seed == b.seed && a.converged == b.converged &&
        same_double(a.final_error, b.final_error) &&
        same_double(a.sum_drift, b.sum_drift) &&
        a.transmissions.by_category == b.transmissions.by_category &&
        a.far_exchanges == b.far_exchanges &&
        a.near_exchanges == b.near_exchanges &&
        a.metrics.size() == b.metrics.size())) {
    return false;
  }
  for (auto it_a = a.metrics.begin(), it_b = b.metrics.begin();
       it_a != a.metrics.end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first ||
        !same_double(it_a->second, it_b->second)) {
      return false;
    }
  }
  return true;
}

std::string shard_path(const std::string& path, std::uint32_t shard_index,
                       std::uint32_t shard_count) {
  GG_CHECK_ARG(shard_count >= 1, "shard_path: shard_count >= 1");
  GG_CHECK_ARG(shard_index < shard_count,
               "shard_path: shard_index < shard_count");
  const std::string tag =
      std::to_string(shard_index) + "-of-" + std::to_string(shard_count);

  static constexpr std::string_view kPlaceholder = "{shard}";
  if (path.find(kPlaceholder) != std::string::npos) {
    std::string out = path;
    std::size_t pos = 0;
    while ((pos = out.find(kPlaceholder, pos)) != std::string::npos) {
      out.replace(pos, kPlaceholder.size(), tag);
      pos += tag.size();
    }
    return out;
  }
  if (shard_count == 1) return path;

  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t dot =
      path.find('.', slash == std::string::npos ? 0 : slash + 1);
  const std::string infix = ".shard-" + tag;
  if (dot == std::string::npos) return path + infix;
  return path.substr(0, dot) + infix + path.substr(dot);
}

}  // namespace geogossip::exp
