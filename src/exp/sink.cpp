#include "exp/sink.hpp"

#include "exp/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace geogossip::exp {

namespace {

const std::vector<std::string>& csv_columns() {
  static const std::vector<std::string> columns{
      "scenario",        "cell",
      "protocol",        "n",
      "radius_mult",     "field",
      "replicates",      "converged",
      "converged_fraction", "median_tx",
      "q25_tx",          "q75_tx",
      "local_share",     "long_range_share",
      "control_share",   "far_near_ratio",
      "master_seed",     "threads"};
  return columns;
}

/// Probe cells identify themselves by probe name, protocol cells by kind.
std::string procedure_name(const Cell& cell) {
  return cell.probe.empty()
             ? std::string(core::protocol_kind_name(cell.kind))
             : cell.probe;
}

}  // namespace

CsvSink::CsvSink(const std::string& path) : writer_(path) {}

CsvSink::CsvSink(std::ostream& out) : writer_(out) {}

void CsvSink::write(const SweepSummary& summary) {
  if (!header_written_) {
    param_keys_ = param_key_union(summary);
    metric_keys_ = metric_key_union(summary);
    auto columns = csv_columns();
    for (const auto& key : param_keys_) columns.push_back("param_" + key);
    for (const auto& key : metric_keys_) {
      columns.push_back(key + "_mean");
      columns.push_back(key + "_median");
      columns.push_back(key + "_q95");
      columns.push_back(key + "_min");
      columns.push_back(key + "_max");
    }
    writer_.header(columns);
    header_written_ = true;
  }
  for (const auto& cs : summary.cells) {
    writer_.field(summary.scenario)
        .field(cs.cell.label)
        .field(procedure_name(cs.cell))
        .field(static_cast<std::uint64_t>(cs.cell.n))
        .field(cs.cell.radius_multiplier)
        .field(std::string(sim::field_kind_name(cs.cell.field)))
        .field(static_cast<std::uint64_t>(cs.replicates))
        .field(static_cast<std::uint64_t>(cs.converged))
        .field(cs.converged_fraction)
        .field(cs.median_tx)
        .field(cs.q25_tx)
        .field(cs.q75_tx)
        .field(cs.mean_local_share)
        .field(cs.mean_long_range_share)
        .field(cs.mean_control_share)
        .field(cs.mean_far_near_ratio)
        .field(summary.master_seed)
        .field(static_cast<std::uint64_t>(summary.threads));
    for (const auto& key : param_keys_) {
      const auto it = cs.cell.params.find(key);
      if (it == cs.cell.params.end()) {
        writer_.field(std::string());
      } else {
        writer_.field(it->second);
      }
    }
    for (const auto& key : metric_keys_) {
      const auto it = cs.metrics.find(key);
      if (it == cs.metrics.end()) {
        for (int i = 0; i < 5; ++i) writer_.field(std::string());
      } else {
        writer_.field(it->second.mean)
            .field(it->second.median)
            .field(it->second.q95)
            .field(it->second.min)
            .field(it->second.max);
      }
    }
    writer_.end_row();
  }
}

JsonLinesSink::JsonLinesSink(const std::string& path, Mode mode)
    : owned_(std::make_unique<std::ofstream>(
          path, std::ios::binary | (mode == Mode::kAppend ? std::ios::app
                                                          : std::ios::trunc))),
      out_(owned_.get()) {
  GG_CHECK_ARG(owned_->is_open(),
               "JsonLinesSink: cannot open '" + path + "'");
  if (mode == Mode::kAppend) {
    // Seal a torn tail left by a killed writer: with the newline added,
    // the debris is one malformed line the checkpoint reader skips and
    // counts, rather than a prefix that corrupts the first new record.
    std::ifstream existing(path, std::ios::binary | std::ios::ate);
    if (existing.is_open() && existing.tellg() > std::streamoff{0}) {
      existing.seekg(-1, std::ios::end);
      char last = '\n';
      existing.get(last);
      if (last != '\n') {
        *out_ << '\n';
        out_->flush();
      }
    }
  }
}

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(&out) {}

void JsonLinesSink::write(const SweepSummary& summary) {
  for (const auto& cs : summary.cells) {
    JsonObject line;
    line.field("scenario", summary.scenario)
        .field("cell", cs.cell.label)
        .field("protocol", procedure_name(cs.cell))
        .field("n", cs.cell.n)
        .field("radius_mult", cs.cell.radius_multiplier)
        .field("field", sim::field_kind_name(cs.cell.field))
        .field("replicates", cs.replicates)
        .field("converged", cs.converged)
        .field("converged_fraction", cs.converged_fraction)
        .field("median_tx", cs.median_tx)
        .field("q25_tx", cs.q25_tx)
        .field("q75_tx", cs.q75_tx)
        .field("local_share", cs.mean_local_share)
        .field("long_range_share", cs.mean_long_range_share)
        .field("control_share", cs.mean_control_share)
        .field("far_near_ratio", cs.mean_far_near_ratio)
        .field("master_seed", summary.master_seed)
        .field("threads", summary.threads);
    if (!cs.cell.params.empty()) {
      JsonObject params;
      for (const auto& [key, value] : cs.cell.params) params.field(key, value);
      line.field("params", params);
    }
    if (!cs.metrics.empty()) {
      JsonObject metrics;
      for (const auto& [key, ms] : cs.metrics) {
        metrics.field(key, JsonObject()
                               .field("count", ms.count)
                               .field("mean", ms.mean)
                               .field("median", ms.median)
                               .field("q95", ms.q95)
                               .field("min", ms.min)
                               .field("max", ms.max));
      }
      line.field("metrics", metrics);
    }
    *out_ << line.str() << '\n';
  }
  out_->flush();
}

void JsonLinesSink::write_replicate(const std::string& scenario,
                                    std::uint64_t master_seed,
                                    const Cell& cell, std::size_t cell_index,
                                    std::uint32_t replicate,
                                    const ReplicateResult& result) {
  obs::Span span("checkpoint_write", "cell",
                 static_cast<std::int64_t>(cell_index), "replicate",
                 replicate);
  *out_ << replicate_record(scenario, master_seed, cell.label, cell_index,
                            replicate, result)
        << '\n';
  // Flush per record, not per sweep: an interrupted XL run keeps every
  // finished replicate — the raw material for resumable sweeps.  A stream
  // that is not good after the flush lost the line (a failed write or
  // flush sets badbit) or never wrote it (it held failbit already), so
  // the Runner must not count the replicate complete.
  out_->flush();
  if (!out_->good()) {
    throw IoError("JsonLinesSink::write_replicate: persisting cell_index " +
                  std::to_string(cell_index) + " replicate " +
                  std::to_string(replicate) +
                  ": stream is not good after the flush (disk full, lost "
                  "device or an earlier failure) — the record is not on "
                  "disk");
  }
}

void write_sinks(const SweepSummary& summary, const std::string& csv_path,
                 const std::string& json_path) {
  if (!csv_path.empty()) CsvSink(csv_path).write(summary);
  if (!json_path.empty()) JsonLinesSink(json_path).write(summary);
}

}  // namespace geogossip::exp
