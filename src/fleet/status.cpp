#include "fleet/status.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/string_util.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

struct BatchState {
  bool queued = false;
  std::vector<Lease> leases;
  std::optional<std::string> done_by;  ///< the done marker's owner
  std::size_t record_files = 0;
};

/// The entries of `dir` sorted by name; a missing directory is empty.
std::vector<fs::path> sorted_entries(const std::string& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    out.push_back(it->path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The file as one JSON document (a heartbeat or done marker holds one
/// object); null when it does not parse.
JsonValue read_json_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  try {
    return parse_json(text);
  } catch (const JsonParseError&) {
    return {};
  }
}

/// A JSON field as text: an exact integer or a string, else "?".
std::string field(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.get(key);
  if (v != nullptr && v->is_uint) return std::to_string(v->uint_value);
  if (v != nullptr && v->kind == JsonValue::Kind::kString) return v->text;
  return "?";
}

/// Milliseconds as "<seconds>s"; callers subtract time stamps as doubles,
/// so a tampered stamp cannot overflow the difference.
std::string seconds(double ms) { return format_fixed(ms / 1000.0, 1) + "s"; }

/// Prints the board of a fleet whose plan loaded; returns the violations.
std::vector<std::string> print_board(const std::string& dir,
                                     const FleetPlan& plan, double now,
                                     std::ostream& out) {
  // Batch ids on disk outside the plan get a slot too, so they show.
  std::map<std::uint32_t, BatchState> batches;
  for (std::uint32_t batch = 0; batch < plan.batches; ++batch) {
    batches[batch];
  }
  const LeaseStore store(dir);  // throws when queue/ or leases/ is missing
  for (const std::uint32_t batch : store.queued()) {
    batches[batch].queued = true;
  }
  for (Lease& lease : store.leases()) {
    batches[lease.batch].leases.push_back(std::move(lease));
  }
  std::uint32_t done = 0;
  for (const fs::path& path : sorted_entries(done_dir(dir))) {
    std::uint32_t batch = 0;
    if (!parse_ticket_filename(path.filename().string(), &batch)) continue;
    batches[batch].done_by = field(read_json_file(path), "owner");
    if (batch < plan.batches) ++done;
  }
  for (const std::string& path : all_record_files(dir)) {
    std::uint32_t batch = 0;
    parse_records_filename(fs::path(path).filename().string(), &batch);
    ++batches[batch].record_files;
  }

  const bool complete = done == plan.batches;
  std::vector<std::string> problems;
  const auto residue = [&](const std::string& what) {
    if (complete) problems.push_back("complete fleet still has " + what);
  };
  out << "fleet: scenario '" << plan.scenario << "' seed " << plan.master_seed
      << " — " << plan.cells << " cell(s) x " << plan.replicates
      << " replicate(s) over " << plan.batches << " batch(es)\n"
      << "progress: " << done << "/" << plan.batches << " batch(es) done"
      << (complete ? " — COMPLETE" : "") << "\n";
  for (const auto& [id, batch] : batches) {
    const std::string name = "batch " + std::to_string(id);
    out << "  " << name << ": ";
    if (batch.done_by) {
      out << "done (by " << *batch.done_by << ")";
    } else if (!batch.leases.empty()) {
      const char* separator = "leased: g";
      for (const Lease& lease : batch.leases) {
        const double expires = static_cast<double>(lease.expires_unix_ms);
        out << separator << lease.generation << " " << lease.owner << " ("
            << (lease.expires_unix_ms == 0 ? "never renewed — reclaimable"
                : expires < now ? "EXPIRED " + seconds(now - expires) + " ago"
                                : seconds(expires - now) + " left")
            << ")";
        separator = ", g";
      }
    } else {
      out << (batch.queued ? "queued"
                           : "STRANDED (no ticket, no lease, no done marker)");
    }
    if (batch.record_files > 0) {
      out << ", " << batch.record_files << " record file(s)";
    }
    out << "\n";

    if (id >= plan.batches) {
      problems.push_back(name + " is outside the plan's " +
                         std::to_string(plan.batches) + " batch(es)");
    } else if (!batch.done_by && !batch.queued && batch.leases.empty()) {
      problems.push_back(name +
                         " is stranded: no ticket, no lease, no done "
                         "marker — no worker will ever pick it up");
    }
    if (batch.queued) residue("a queue ticket for " + name);
    for (const Lease& lease : batch.leases) {
      residue("lease leases/" + fs::path(lease.path).filename().string());
    }
  }

  for (const fs::path& path : sorted_entries(hb_dir(dir))) {
    if (path.extension() != ".jsonl") continue;
    const JsonValue beat = read_json_file(path);
    out << "worker " << path.stem().string() << ": ";
    if (beat.kind != JsonValue::Kind::kObject) {
      out << "heartbeat unreadable\n";
      continue;
    }
    out << field(beat, "completed") << "/" << field(beat, "total")
        << " replicates, "
        << (beat.get("lease") ? "lease '" + field(beat, "lease") + "'"
                              : "no lease");
    if (const JsonValue* flushed = beat.get("flush_unix_ms")) {
      out << ", last beat " << seconds(now - flushed->number) << " ago";
    }
    out << "\n";
  }

  std::size_t snapshots = 0;
  for (const fs::path& path : sorted_entries(snaps_dir(dir))) {
    if (path.extension() != ".ggsnap") continue;
    ++snapshots;
    residue("parked snapshot snaps/" + path.filename().string());
  }
  if (snapshots > 0) out << "parked snapshots: " << snapshots << "\n";

  std::vector<fs::path> temps;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().filename().string().find(".tmp") != std::string::npos) {
      temps.push_back(it->path());
    }
  }
  std::sort(temps.begin(), temps.end());
  for (const fs::path& path : temps) {
    const std::string name = path.lexically_relative(dir).string();
    std::error_code mtime_ec;
    const auto mtime = fs::last_write_time(path, mtime_ec);
    if (mtime_ec) continue;  // renamed away since it was listed
    const double age =
        now - std::chrono::duration<double, std::milli>(
                  std::chrono::file_clock::to_sys(mtime).time_since_epoch())
                  .count();
    residue("temp debris " + name);
    if (!complete && age > kStaleTempSeconds * 1000.0) {
      problems.push_back("stale temp file " + name + " (" + seconds(age) +
                         " old — crash debris)");
    }
  }
  if (!temps.empty()) out << "temp files: " << temps.size() << "\n";
  return problems;
}

}  // namespace

std::size_t print_fleet_status(const std::string& fleet_dir,
                               std::int64_t now_unix_ms, std::ostream& out) {
  std::vector<std::string> problems;
  try {
    const std::optional<FleetPlan> plan = try_load_plan(fleet_dir);
    if (!plan) {
      throw ArgumentError("no plan.json in '" + fleet_dir +
                          "' — not a fleet directory, or its planner has "
                          "not committed yet");
    }
    problems = print_board(fleet_dir, *plan,
                           static_cast<double>(now_unix_ms), out);
  } catch (const ArgumentError& error) {
    // No plan, a corrupt or foreign one, or no queue/ or leases/.
    problems.push_back(error.what());
  }
  for (const std::string& problem : problems) {
    out << "INVALID: " << problem << "\n";
  }
  if (problems.empty()) out << "fleet invariants hold\n";
  return problems.size();
}

}  // namespace geogossip::fleet
