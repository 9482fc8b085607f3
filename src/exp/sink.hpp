// Result sinks: uniform machine-readable emission of sweep summaries.
//
// Every ported bench funnels its per-cell aggregates through these sinks
// instead of hand-rolling CSV columns.  CsvSink writes one RFC-4180 row
// per cell (via support/csv.hpp); JsonLinesSink writes one JSON object per
// cell.  Both embed the scenario metadata (name, master seed, replicate
// count) in every row so concatenated outputs from different sweeps stay
// self-describing.
#ifndef GEOGOSSIP_EXP_SINK_HPP
#define GEOGOSSIP_EXP_SINK_HPP

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "support/csv.hpp"

namespace geogossip::exp {

/// Column order: scenario, cell, protocol, n, radius_mult, field,
/// replicates, converged, converged_fraction, median_tx, q25_tx, q75_tx,
/// local_share, long_range_share, control_share, far_near_ratio,
/// master_seed, threads — then one param_<key> column per cell parameter
/// and five columns (<key>_mean, _median, _q95, _min, _max) per per-trial
/// metric key, both in sorted key order, so sweep coordinates and order
/// statistics survive without label parsing.  Probe cells put the probe
/// name in the protocol column.  The param/metric column sets are fixed by
/// the FIRST summary written; later summaries fill only those columns
/// (absent keys emit empty fields, novel keys are dropped) so appended
/// output stays rectangular.
class CsvSink {
 public:
  explicit CsvSink(const std::string& path);
  explicit CsvSink(std::ostream& out);

  /// Appends every cell of `summary`.  May be called multiple times; the
  /// header is emitted once.
  void write(const SweepSummary& summary);

 private:
  CsvWriter writer_;
  bool header_written_ = false;
  std::vector<std::string> param_keys_;
  std::vector<std::string> metric_keys_;
};

/// One JSON object per line per cell (JSON Lines / ndjson).  Also writes
/// replicate records (write_replicate) and flushes after EVERY one, so a
/// sweep killed mid-flight — an XL cell can run for hours — keeps
/// everything finished so far on disk.  The record's fields are
/// exp::replicate_record's (checkpoint.hpp), next to their reader.
class JsonLinesSink {
 public:
  enum class Mode {
    kTruncate,  ///< start a fresh file
    kAppend,    ///< continue an interrupted file (resume into the same path)
  };

  /// Opens `path`; throws ArgumentError if it cannot be opened.  kAppend
  /// first seals a torn final line (a non-empty file not ending in '\n'
  /// gets one) so crash debris from the previous writer becomes one
  /// self-contained malformed line — skipped with a count on the next
  /// Checkpoint::load — instead of gluing onto the first new record.
  explicit JsonLinesSink(const std::string& path,
                         Mode mode = Mode::kTruncate);
  explicit JsonLinesSink(std::ostream& out);

  /// Appends one object per cell of `summary` and flushes.
  void write(const SweepSummary& summary);

  /// Appends one replicate record (replicate_record) and flushes
  /// immediately.  Wire into RunnerOptions::progress to stream a sweep;
  /// records interleave safely with the per-cell write() lines because
  /// each carries its own "record" discriminator.  Throws IoError when the
  /// stream is not good after the flush: the Runner then aborts instead of
  /// reporting replicates complete that the file does not hold.
  void write_replicate(const std::string& scenario,
                       std::uint64_t master_seed, const Cell& cell,
                       std::size_t cell_index, std::uint32_t replicate,
                       const ReplicateResult& result);

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
};

/// Convenience for drivers: writes `summary` to the given CSV and/or
/// JSON-lines paths; an empty path skips that sink.
void write_sinks(const SweepSummary& summary, const std::string& csv_path,
                 const std::string& json_path);

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SINK_HPP
