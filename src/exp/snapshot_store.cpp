#include "exp/snapshot_store.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "exp/schema.hpp"
#include "obs/telemetry.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"
#include "support/snapshot.hpp"

namespace geogossip::exp {

namespace {

/// Leading file magic; also carries the container revision so a future
/// layout change is caught before any field is decoded.
constexpr std::string_view kMagic = "GGSNAP1\n";

}  // namespace

SnapshotStore::SnapshotStore(std::string dir, std::string scenario,
                             std::uint64_t master_seed,
                             double stale_tmp_age_seconds)
    : dir_(std::move(dir)),
      scenario_(std::move(scenario)),
      master_seed_(master_seed) {
  GG_CHECK_ARG(!dir_.empty(), "SnapshotStore: dir must be non-empty");
  GG_CHECK_ARG(stale_tmp_age_seconds >= 0.0,
               "SnapshotStore: stale_tmp_age_seconds must be >= 0");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw IoError("SnapshotStore: cannot create '" + dir_ +
                  "': " + ec.message());
  }
  // Sweep crash debris: a writer killed between fopen and rename leaves
  // its temp sibling behind forever.  Age-gate the sweep so we never
  // delete a sibling fleet worker's in-flight save.
  for (const std::string& path :
       sweep_stale_temps(dir_, stale_tmp_age_seconds)) {
    obs::add(obs::counter("snapshot.stale_tmp_swept"), 1);
    log_warn("SnapshotStore: swept stale temp file '", path,
             "' (crashed writer debris)");
  }
}

std::string SnapshotStore::path_for(std::size_t cell_index,
                                    std::uint32_t replicate) const {
  return dir_ + "/snap-c" + std::to_string(cell_index) + "-r" +
         std::to_string(replicate) + ".ggsnap";
}

void SnapshotStore::save(std::size_t cell_index, std::uint32_t replicate,
                         std::uint64_t seed, std::uint64_t ticks,
                         std::string_view payload) const {
  obs::Span span("snapshot_write", "cell",
                 static_cast<std::int64_t>(cell_index), "ticks",
                 static_cast<std::int64_t>(ticks));

  SnapshotWriter w;
  w.u32(kSchemaVersion);
  w.str(scenario_);
  w.u64(master_seed_);
  w.u64(static_cast<std::uint64_t>(cell_index));
  w.u32(replicate);
  w.u64(seed);
  w.u64(ticks);
  w.u64(fnv1a64(payload));
  w.str(payload);

  std::string file(kMagic);
  file += w.bytes();
  atomic_write_file(path_for(cell_index, replicate), file);
}

std::optional<LoadedSnapshot> SnapshotStore::try_load(
    std::size_t cell_index, std::uint32_t replicate,
    std::uint64_t seed) const {
  const std::string path = path_for(cell_index, replicate);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    // No committed snapshot — but an orphaned temp here means a writer
    // died mid-save for this very slot; count it so fleets can tell "no
    // snapshot cadence fired yet" apart from "the save itself was torn".
    if (!temp_siblings(path).empty()) {
      obs::add(obs::counter("snapshot.orphan_tmp"), 1);
      log_warn("snapshot '", path,
               "': absent but an orphaned temp file exists (writer died "
               "mid-save) — replicate restarts from scratch");
    }
    return std::nullopt;  // no snapshot: fresh run
  }

  obs::Span span("snapshot_restore", "cell",
                 static_cast<std::int64_t>(cell_index), "replicate",
                 replicate);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  if (bytes.size() < kMagic.size() ||
      std::string_view(bytes).substr(0, kMagic.size()) != kMagic) {
    log_warn("snapshot '", path,
             "': bad magic (torn or foreign file) — replicate restarts");
    return std::nullopt;
  }
  try {
    SnapshotReader r(std::string_view(bytes).substr(kMagic.size()));
    const std::uint32_t schema = r.u32();
    if (schema != kSchemaVersion) {
      throw ArgumentError(
          "SnapshotStore: '" + path + "' carries schema " +
          std::to_string(schema) + " but this build writes schema " +
          std::to_string(kSchemaVersion) +
          " — refusing to restore a layout this code cannot interpret");
    }
    const std::string scenario = r.str();
    const std::uint64_t master_seed = r.u64();
    const std::uint64_t file_cell = r.u64();
    const std::uint32_t file_replicate = r.u32();
    const std::uint64_t file_seed = r.u64();
    if (scenario != scenario_ || master_seed != master_seed_ ||
        file_cell != cell_index || file_replicate != replicate ||
        file_seed != seed) {
      throw ArgumentError(
          "SnapshotStore: '" + path + "' identifies as (" + scenario +
          ", seed " + std::to_string(master_seed) + ", cell " +
          std::to_string(file_cell) + ", replicate " +
          std::to_string(file_replicate) + ", replicate-seed " +
          std::to_string(file_seed) +
          ") — not this sweep's slot; restoring it would poison the run");
    }
    LoadedSnapshot snapshot;
    snapshot.ticks = r.u64();
    const std::uint64_t checksum = r.u64();
    snapshot.payload = r.str();
    r.finish();
    if (fnv1a64(snapshot.payload) != checksum) {
      log_warn("snapshot '", path,
               "': payload checksum mismatch — replicate restarts");
      return std::nullopt;
    }
    return snapshot;
  } catch (const IoError&) {
    // Truncation mid-field: crash debris from a pre-rename writer on a
    // filesystem without atomic-rename guarantees.  Re-run, don't fail.
    log_warn("snapshot '", path, "': truncated — replicate restarts");
    return std::nullopt;
  }
}

void SnapshotStore::remove(std::size_t cell_index,
                           std::uint32_t replicate) const noexcept {
  const std::string path = path_for(cell_index, replicate);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    log_warn("snapshot '", path, "': cleanup failed: ", ec.message());
  }
  for (const std::string& tmp : temp_siblings(path)) {
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace geogossip::exp
