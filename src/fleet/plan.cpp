#include "fleet/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <thread>

#include "exp/schema.hpp"
#include "fleet/lease.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/retry.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

/// An unsigned integer field no wider than `max`.  Fractions, negatives,
/// non-finite values and wider integers throw: casting them would load a
/// different plan (a 0-batch plan reads as a complete fleet).
std::uint64_t json_uint(const JsonValue& doc, std::string_view key,
                        const std::string& what, std::uint64_t max) {
  const JsonValue* v = doc.get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    throw ArgumentError(what + ": missing numeric field '" +
                        std::string(key) + "'");
  }
  if (!v->is_uint || v->uint_value > max) {
    throw ArgumentError(what + ": field '" + std::string(key) +
                        "' is not an integer in [0, " + std::to_string(max) +
                        "]");
  }
  return v->uint_value;
}

/// Queue tickets are leases in waiting (see write_lease_file).
void write_ticket(const std::string& fleet_dir, std::uint32_t batch) {
  Lease ticket;
  ticket.batch = batch;
  ticket.path = queue_ticket_path(fleet_dir, batch);
  write_lease_file(ticket);
}

}  // namespace

std::string plan_path(const std::string& d) { return d + "/plan.json"; }
std::string claim_dir(const std::string& d) { return d + "/planner.claim"; }
std::string queue_dir(const std::string& d) { return d + "/queue"; }
std::string leases_dir(const std::string& d) { return d + "/leases"; }
std::string records_dir(const std::string& d) { return d + "/records"; }
std::string done_dir(const std::string& d) { return d + "/done"; }
std::string snaps_dir(const std::string& d) { return d + "/snaps"; }
std::string hb_dir(const std::string& d) { return d + "/hb"; }

std::string queue_ticket_path(const std::string& fleet_dir,
                              std::uint32_t batch) {
  return queue_dir(fleet_dir) + "/batch-" + std::to_string(batch) + ".json";
}

std::string done_marker_path(const std::string& fleet_dir,
                             std::uint32_t batch) {
  return done_dir(fleet_dir) + "/batch-" + std::to_string(batch) + ".json";
}

std::string records_path(const std::string& fleet_dir, std::uint32_t batch,
                         std::uint32_t generation,
                         const std::string& owner) {
  return records_dir(fleet_dir) + "/batch-" + std::to_string(batch) + ".g" +
         std::to_string(generation) + "." + owner + ".jsonl";
}

std::string heartbeat_path(const std::string& fleet_dir,
                           const std::string& owner) {
  return hb_dir(fleet_dir) + "/" + owner + ".jsonl";
}

std::string worker_stats_path(const std::string& fleet_dir,
                              const std::string& owner) {
  return hb_dir(fleet_dir) + "/" + owner + ".stats.json";
}

FleetPlan plan_for(const exp::Scenario& scenario, std::uint32_t batches) {
  FleetPlan plan;
  plan.scenario = scenario.name;
  plan.master_seed = scenario.master_seed;
  plan.replicates = scenario.replicates;
  plan.cells = scenario.cells.size();
  plan.batches = batches;
  return plan;
}

std::optional<FleetPlan> try_load_plan(const std::string& fleet_dir) {
  const std::string path = plan_path(fleet_dir);
  const std::optional<std::string> text = read_file(path);
  if (!text) return std::nullopt;
  try {
    const JsonValue doc = parse_json(*text);
    const JsonValue* record = doc.get("record");
    if (record == nullptr || record->text != "fleet_plan") {
      throw ArgumentError("fleet plan '" + path +
                          "': not a fleet_plan record");
    }
    const std::uint64_t schema = json_uint(doc, "schema", path, UINT64_MAX);
    if (schema != exp::kSchemaVersion) {
      throw ArgumentError(
          "fleet plan '" + path + "' carries schema " +
          std::to_string(schema) + " but this build writes schema " +
          std::to_string(exp::kSchemaVersion) +
          " — refusing to join a fleet this code cannot interpret");
    }
    const JsonValue* scenario = doc.get("scenario");
    if (scenario == nullptr ||
        scenario->kind != JsonValue::Kind::kString) {
      throw ArgumentError("fleet plan '" + path + "': missing scenario");
    }
    FleetPlan plan;
    plan.scenario = scenario->text;
    plan.master_seed = json_uint(doc, "master_seed", path, UINT64_MAX);
    plan.replicates = static_cast<std::uint32_t>(
        json_uint(doc, "replicates", path, UINT32_MAX));
    plan.cells = json_uint(doc, "cells", path, UINT64_MAX);
    plan.batches = static_cast<std::uint32_t>(
        json_uint(doc, "batches", path, UINT32_MAX));
    if (plan.batches == 0) {
      throw ArgumentError("fleet plan '" + path + "' declares no batches");
    }
    return plan;
  } catch (const JsonParseError& error) {
    // A torn plan cannot happen through the write path (temp + rename);
    // one on disk means tampering or a broken filesystem — stop loudly.
    throw ArgumentError("fleet plan '" + path +
                        "' is unparsable: " + error.what());
  }
}

void validate_plan_match(const FleetPlan& on_disk, const FleetPlan& ours) {
  const auto mismatch = [&](const std::string& field,
                            const std::string& disk_value,
                            const std::string& our_value) {
    throw ArgumentError(
        "fleet plan mismatch on " + field + ": the fleet directory was "
        "planned with " + disk_value + " but this worker brings " +
        our_value + " — joining would merge records from different "
        "sweeps; use a fresh --fleet-dir");
  };
  if (on_disk.scenario != ours.scenario) {
    mismatch("scenario", "'" + on_disk.scenario + "'",
             "'" + ours.scenario + "'");
  }
  if (on_disk.master_seed != ours.master_seed) {
    mismatch("master_seed", std::to_string(on_disk.master_seed),
             std::to_string(ours.master_seed));
  }
  if (on_disk.replicates != ours.replicates) {
    mismatch("replicates", std::to_string(on_disk.replicates),
             std::to_string(ours.replicates));
  }
  if (on_disk.cells != ours.cells) {
    mismatch("cells", std::to_string(on_disk.cells),
             std::to_string(ours.cells));
  }
  if (ours.batches != 0 && on_disk.batches != ours.batches) {
    mismatch("batches", std::to_string(on_disk.batches),
             std::to_string(ours.batches));
  }
}

FleetPlan ensure_plan(const std::string& fleet_dir,
                      const exp::Scenario& scenario, std::uint32_t batches,
                      const EnsurePlanOptions& options) {
  GG_CHECK_ARG(!fleet_dir.empty(), "ensure_plan: fleet_dir must not be empty");
  GG_CHECK_ARG(scenario.replicates > 0 && !scenario.cells.empty(),
               "ensure_plan: the scenario has no work");
  std::error_code ec;
  fs::create_directories(fleet_dir, ec);
  if (ec) {
    throw IoError("ensure_plan: cannot create '" + fleet_dir +
                  "': " + ec.message());
  }

  const auto sleep_for = [&](double seconds) {
    if (options.sleeper) {
      options.sleeper(seconds);
      return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };

  // Timeout is measured in REQUESTED sleep seconds, so tests with an
  // injected sleeper exercise the timeout without wall-clock time.
  double waited = 0.0;
  while (true) {
    if (auto on_disk = try_load_plan(fleet_dir)) {
      validate_plan_match(*on_disk, plan_for(scenario, batches));
      return *on_disk;
    }
    GG_CHECK_ARG(batches >= 1,
                 "ensure_plan: founding a fleet needs a batch count >= 1 "
                 "(--fleet-batches)");

    if (fs::create_directory(claim_dir(fleet_dir), ec) && !ec) {
      // We are the planner.  Tickets first, plan.json LAST: its
      // existence commits the whole layout.
      const FleetPlan plan = plan_for(scenario, batches);
      for (const std::string& dir :
           {queue_dir(fleet_dir), leases_dir(fleet_dir),
            records_dir(fleet_dir), done_dir(fleet_dir),
            snaps_dir(fleet_dir), hb_dir(fleet_dir)}) {
        fs::create_directories(dir, ec);
        if (ec) {
          throw IoError("ensure_plan: cannot create '" + dir +
                        "': " + ec.message());
        }
      }
      for (std::uint32_t batch = 0; batch < batches; ++batch) {
        write_ticket(fleet_dir, batch);
      }
      JsonObject content;
      content.field("record", "fleet_plan")
          .field("schema", exp::kSchemaVersion)
          .field("scenario", plan.scenario)
          .field("master_seed", plan.master_seed)
          .field("replicates", plan.replicates)
          .field("cells", plan.cells)
          .field("batches", plan.batches);
      atomic_write_file(plan_path(fleet_dir), content.str() + "\n");
      log_info("fleet: planned '", fleet_dir, "' — ", batches,
               " batches over ", plan.total_tasks(), " replicates");
      return plan;
    }

    // Someone else holds the claim.  A claim this stale with no plan
    // behind it is a dead planner: sweep it and rerun the election
    // (tickets are deterministic, so a slow-not-dead planner racing the
    // rerun merely rewrites identical files).
    if (fs::exists(claim_dir(fleet_dir), ec)) {
      const auto mtime = fs::last_write_time(claim_dir(fleet_dir), ec);
      if (!ec) {
        const auto age = fs::file_time_type::clock::now() - mtime;
        const auto grace =
            std::chrono::duration_cast<fs::file_time_type::duration>(
                std::chrono::duration<double>(options.stale_claim_seconds));
        if (age > grace) {
          log_warn("fleet: removing stale planner claim in '", fleet_dir,
                   "' (planner died mid-election)");
          fs::remove_all(claim_dir(fleet_dir), ec);
          continue;
        }
      }
    }

    if (waited >= options.wait_timeout_seconds) {
      throw IoError("ensure_plan: no plan appeared in '" + fleet_dir +
                    "' after " + std::to_string(waited) +
                    "s of waiting on another worker's election");
    }
    sleep_for(detail::jittered(options.poll_seconds, 0.25));
    waited += options.poll_seconds;
  }
}

bool batch_done(const std::string& fleet_dir, std::uint32_t batch) {
  std::error_code ec;
  return fs::exists(done_marker_path(fleet_dir, batch), ec);
}

std::vector<std::uint32_t> done_batches(const std::string& fleet_dir,
                                        std::uint32_t batches) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t batch = 0; batch < batches; ++batch) {
    if (batch_done(fleet_dir, batch)) out.push_back(batch);
  }
  return out;
}

void write_done_marker(const std::string& fleet_dir, std::uint32_t batch,
                       const std::string& owner,
                       const std::string& records_file,
                       std::uint64_t completed_replicates) {
  JsonObject content;
  content.field("record", "fleet_done")
      .field("batch", batch)
      .field("owner", owner)
      .field("records", records_file)
      .field("completed_replicates", completed_replicates)
      .field("completed_unix_ms", LeaseStore::now_unix_ms());
  atomic_write_file(done_marker_path(fleet_dir, batch), content.str() + "\n");
}

void requeue_batch(const std::string& fleet_dir, std::uint32_t batch) {
  write_ticket(fleet_dir, batch);
}

bool parse_records_filename(const std::string& name, std::uint32_t* batch) {
  std::uint32_t generation = 0;
  std::string owner;
  return parse_lease_filename(name, batch, &generation, &owner, ".jsonl");
}

std::vector<std::string> batch_record_files(const std::string& fleet_dir,
                                            std::uint32_t batch) {
  std::vector<std::string> out;
  for (std::string& path : all_record_files(fleet_dir)) {
    std::uint32_t file_batch = 0;
    if (parse_records_filename(fs::path(path).filename().string(),
                               &file_batch) &&
        file_batch == batch) {
      out.push_back(std::move(path));
    }
  }
  return out;
}

std::vector<std::string> all_record_files(const std::string& fleet_dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(records_dir(fleet_dir), ec)) {
    std::uint32_t batch = 0;
    if (parse_records_filename(entry.path().filename().string(), &batch)) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace geogossip::fleet
