#include "obs/heartbeat.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "obs/memory.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace geogossip::obs {

namespace {

std::int64_t unix_millis_now() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Heartbeat::Heartbeat(Options options)
    : options_(std::move(options)), total_(options_.total_replicates) {
  GG_CHECK_ARG(!options_.path.empty(), "Heartbeat: path must not be empty");
  GG_CHECK_ARG(options_.interval_seconds > 0.0 &&
                   options_.interval_seconds <= kMaxIntervalSeconds,
               "Heartbeat: interval_seconds must be positive, at most 1e9");
  // A crashed predecessor can leave its half-written temp behind; the
  // temp name is derived from our (unique-per-writer) path, so the
  // debris is ours to sweep.
  for (const std::string& tmp : temp_siblings(options_.path)) {
    std::error_code ec;
    if (std::filesystem::remove(tmp, ec)) {
      log_warn("heartbeat: swept stale temp file " + tmp);
    }
  }
  std::string beat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    beat = compose_locked();
  }
  commit(beat);
  thread_ = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::note_start(std::int64_t cell_index, std::int64_t replicate) {
  std::lock_guard<std::mutex> lock(mu_);
  current_cell_ = cell_index;
  current_replicate_ = replicate;
}

void Heartbeat::note_done() {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
}

void Heartbeat::add_completed(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  completed_ += count;
}

void Heartbeat::add_total(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ += count;
}

void Heartbeat::set_lease(std::string lease) {
  std::lock_guard<std::mutex> lock(mu_);
  lease_ = std::move(lease);
}

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::string beat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    beat = compose_locked();  // final beat carries the end-state counts
    stopped_ = true;
  }
  commit(beat);
}

void Heartbeat::loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.interval_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    const std::string beat = compose_locked();
    // Commit without the lock: a retrying filesystem must not block
    // note_start/note_done callers on the simulation's hot path.
    lock.unlock();
    commit(beat);
    lock.lock();
  }
}

std::string Heartbeat::compose_locked() {
  std::string line = "{\"record\":\"heartbeat\",\"scenario\":\"";
  line += json_escape(options_.scenario);
  line += "\",\"shard_index\":";
  line += std::to_string(options_.shard_index);
  line += ",\"shard_count\":";
  line += std::to_string(options_.shard_count);
  line += ",\"completed\":";
  line += std::to_string(completed_);
  line += ",\"total\":";
  line += std::to_string(total_);
  line += ",\"cell\":";
  line += std::to_string(current_cell_);
  line += ",\"replicate\":";
  line += std::to_string(current_replicate_);
  line += ",\"rss_kb\":";
  line += std::to_string(max_rss_kb());
  line += ",\"flush_unix_ms\":";
  line += std::to_string(unix_millis_now());
  if (!options_.worker.empty()) {
    line += ",\"worker\":\"";
    line += json_escape(options_.worker);
    line += "\"";
  }
  if (!lease_.empty()) {
    line += ",\"lease\":\"";
    line += json_escape(lease_);
    line += "\"";
  }
  line += ",\"seq\":";
  line += std::to_string(seq_);
  line += "}\n";
  ++seq_;
  return line;
}

void Heartbeat::commit(const std::string& beat) {
  // Readers either see the previous beat or the new one, never a prefix
  // of either.  A commit that still fails after the helper's retries is
  // logged, never thrown — heartbeats must not kill the host sweep.
  try {
    atomic_write_file(options_.path, beat);
  } catch (const IoError& error) {
    log_error(error.what());
  }
}

}  // namespace geogossip::obs
