#include "fleet/lease.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <utility>

#include "fleet/plan.hpp"
#include "obs/telemetry.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

/// A lease time stamp as renew writes it: a digits-only integer in int64
/// range.  Anything else (fractions, negatives, NaN, infinities, wider
/// integers) reads as 0, "never renewed", instead of an overflowing cast.
std::int64_t unix_ms_or_zero(const JsonValue* v) {
  if (v == nullptr || !v->is_uint || v->uint_value > INT64_MAX) return 0;
  return static_cast<std::int64_t>(v->uint_value);
}

/// Fills a lease's content fields from its file.  A file that cannot be
/// read or parsed (a claimant killed before its first renewal left the
/// queue ticket's content behind) leaves expires_unix_ms at 0 — i.e.
/// already expired, immediately reclaimable.
void read_lease_content(Lease* lease) {
  lease->ttl_seconds = 0.0;
  lease->acquired_unix_ms = 0;
  lease->expires_unix_ms = 0;
  lease->heartbeat.clear();
  const std::optional<std::string> text = read_file(lease->path);
  if (!text) return;
  try {
    const JsonValue doc = parse_json(*text);
    const JsonValue* record = doc.get("record");
    if (record == nullptr || record->text != "fleet_lease") return;
    if (const JsonValue* v = doc.get("ttl_seconds")) {
      lease->ttl_seconds = v->number;
    }
    lease->acquired_unix_ms = unix_ms_or_zero(doc.get("acquired_unix_ms"));
    lease->expires_unix_ms = unix_ms_or_zero(doc.get("expires_unix_ms"));
    if (const JsonValue* v = doc.get("heartbeat")) {
      lease->heartbeat = v->text;
    }
  } catch (const JsonParseError&) {
    // Ticket content or torn write: stays "never renewed".
  }
}

bool parse_u32(std::string_view text, std::uint32_t* value) {
  if (text.empty() || text.size() > 9) return false;
  std::uint32_t out = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint32_t>(c - '0');
  }
  *value = out;
  return true;
}

/// Strips "batch-" and `suffix` off `name`; false unless both are there.
bool strip_batch_affixes(std::string_view* name, std::string_view suffix) {
  constexpr std::string_view kPrefix = "batch-";
  if (name->size() < kPrefix.size() + suffix.size() ||
      !name->starts_with(kPrefix) || !name->ends_with(suffix)) {
    return false;
  }
  name->remove_prefix(kPrefix.size());
  name->remove_suffix(suffix.size());
  return true;
}

}  // namespace

std::string Lease::label() const {
  return "batch-" + std::to_string(batch) + ".g" + std::to_string(generation);
}

bool valid_owner(const std::string& owner) noexcept {
  if (owner.empty() || owner.size() > 128) return false;
  for (const char c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void write_lease_file(const Lease& lease) {
  JsonObject content;
  content.field("record", "fleet_lease")
      .field("batch", lease.batch)
      .field("generation", lease.generation)
      .field("owner", lease.owner)
      .field("ttl_seconds", lease.ttl_seconds)
      .field("acquired_unix_ms", lease.acquired_unix_ms)
      .field("expires_unix_ms", lease.expires_unix_ms)
      .field("heartbeat", lease.heartbeat);
  atomic_write_file(lease.path, content.str() + "\n");
}

std::string lease_filename(std::uint32_t batch, std::uint32_t generation,
                           const std::string& owner) {
  return "batch-" + std::to_string(batch) + ".g" +
         std::to_string(generation) + "." + owner + ".lease";
}

bool parse_ticket_filename(std::string_view name, std::uint32_t* batch) {
  return strip_batch_affixes(&name, ".json") && parse_u32(name, batch);
}

bool parse_lease_filename(std::string_view name, std::uint32_t* batch,
                          std::uint32_t* generation, std::string* owner,
                          std::string_view suffix) {
  if (!strip_batch_affixes(&name, suffix)) return false;
  const std::size_t dot_g = name.find(".g");
  if (dot_g == std::string_view::npos) return false;
  const std::size_t owner_dot = name.find('.', dot_g + 2);
  if (owner_dot == std::string_view::npos) return false;
  std::uint32_t b = 0;
  std::uint32_t g = 0;
  const std::string o(name.substr(owner_dot + 1));
  if (!parse_u32(name.substr(0, dot_g), &b) ||
      !parse_u32(name.substr(dot_g + 2, owner_dot - dot_g - 2), &g) ||
      !valid_owner(o)) {
    return false;
  }
  *batch = b;
  *generation = g;
  *owner = o;
  return true;
}

LeaseStore::LeaseStore(std::string fleet_dir)
    : fleet_dir_(std::move(fleet_dir)) {
  GG_CHECK_ARG(!fleet_dir_.empty(), "LeaseStore: fleet_dir must not be empty");
  GG_CHECK_ARG(fs::is_directory(queue_dir(fleet_dir_)) &&
                   fs::is_directory(leases_dir(fleet_dir_)),
               "LeaseStore: '" + fleet_dir_ +
                   "' is not a fleet directory (queue/ or leases/ missing) — "
                   "run ensure_plan first");
}

std::int64_t LeaseStore::now_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::vector<std::uint32_t> LeaseStore::queued() const {
  std::vector<std::uint32_t> batches;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queue_dir(fleet_dir_), ec)) {
    std::uint32_t batch = 0;
    if (parse_ticket_filename(entry.path().filename().string(), &batch)) {
      batches.push_back(batch);
    }
  }
  std::sort(batches.begin(), batches.end());
  return batches;
}

std::optional<Lease> LeaseStore::try_claim(std::uint32_t batch,
                                           const std::string& owner,
                                           double ttl_seconds,
                                           const std::string& heartbeat)
    const {
  GG_CHECK_ARG(valid_owner(owner),
               "try_claim: owner must be non-empty [A-Za-z0-9_-]");
  GG_CHECK_ARG(ttl_seconds > 0.0, "try_claim: ttl_seconds must be positive");
  Lease lease;
  lease.batch = batch;
  lease.generation = 0;
  lease.owner = owner;
  lease.ttl_seconds = ttl_seconds;
  lease.heartbeat = heartbeat;
  lease.path =
      leases_dir(fleet_dir_) + "/" + lease_filename(batch, 0, owner);
  std::error_code ec;
  fs::rename(queue_ticket_path(fleet_dir_, batch), lease.path, ec);
  if (ec) return std::nullopt;  // lost the race (or no such ticket)
  lease.acquired_unix_ms = now_unix_ms();
  obs::add(obs::counter("fleet.lease_claimed"), 1);
  // First renewal right away: until it lands the file still holds the
  // ticket's content, which reads as "expired" to everyone else.
  renew(lease);
  return lease;
}

std::vector<Lease> LeaseStore::leases() const {
  std::vector<Lease> out;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(leases_dir(fleet_dir_), ec)) {
    Lease lease;
    if (!parse_lease_filename(entry.path().filename().string(), &lease.batch,
                              &lease.generation, &lease.owner)) {
      continue;  // temp debris or foreign file
    }
    lease.path = entry.path().string();
    read_lease_content(&lease);
    out.push_back(std::move(lease));
  }
  std::sort(out.begin(), out.end(), [](const Lease& a, const Lease& b) {
    return a.batch != b.batch ? a.batch < b.batch
                              : a.generation < b.generation;
  });
  return out;
}

std::optional<Lease> LeaseStore::try_steal(const Lease& victim,
                                           const std::string& owner,
                                           double ttl_seconds,
                                           const std::string& heartbeat)
    const {
  GG_CHECK_ARG(valid_owner(owner),
               "try_steal: owner must be non-empty [A-Za-z0-9_-]");
  GG_CHECK_ARG(ttl_seconds > 0.0, "try_steal: ttl_seconds must be positive");
  // Re-check expiry against the file's CURRENT content: the owner may
  // have renewed between the caller's listing and now.
  Lease current = victim;
  std::error_code ec;
  if (!fs::exists(victim.path, ec)) return std::nullopt;
  read_lease_content(&current);
  if (!current.expired(now_unix_ms())) return std::nullopt;

  Lease mine;
  mine.batch = victim.batch;
  mine.generation = victim.generation + 1;
  mine.owner = owner;
  mine.ttl_seconds = ttl_seconds;
  mine.heartbeat = heartbeat;
  mine.path = leases_dir(fleet_dir_) + "/" +
              lease_filename(mine.batch, mine.generation, owner);
  fs::rename(victim.path, mine.path, ec);
  if (ec) return std::nullopt;  // another worker won the steal
  mine.acquired_unix_ms = now_unix_ms();
  obs::add(obs::counter("fleet.lease_stolen"), 1);
  log_warn("fleet: stole expired lease ", victim.label(), " from '",
           victim.owner, "' as ", mine.label());
  renew(mine);
  return mine;
}

bool LeaseStore::renew(Lease& lease) const {
  // A higher generation means someone stole this lease (and a renewal
  // racing the steal's rename may even have resurrected our old file):
  // clean our residue and report the loss.
  std::error_code ec;
  for (const Lease& other : leases()) {
    if (other.batch == lease.batch && other.generation > lease.generation) {
      fs::remove(lease.path, ec);
      obs::add(obs::counter("fleet.lease_lost"), 1);
      log_warn("fleet: lease ", lease.label(), " of '", lease.owner,
               "' was superseded by generation ", other.generation,
               " — finishing the batch anyway (records deduplicate)");
      return false;
    }
  }
  if (!fs::exists(lease.path, ec)) {
    obs::add(obs::counter("fleet.lease_lost"), 1);
    log_warn("fleet: lease file ", lease.label(), " of '", lease.owner,
             "' vanished — finishing the batch anyway (records "
             "deduplicate)");
    return false;
  }
  const std::int64_t now = now_unix_ms();
  const std::int64_t expires =
      now + static_cast<std::int64_t>(lease.ttl_seconds * 1000.0);
  Lease renewed = lease;
  renewed.expires_unix_ms = expires;
  try {
    write_lease_file(renewed);
  } catch (const IoError& error) {
    // Could not commit the extension; the lease file still holds the old
    // expiry, so the lease is not lost yet — the next renewal retries.
    log_error("fleet: renewing ", lease.label(), " failed: ", error.what());
    return true;
  }
  lease.expires_unix_ms = expires;
  return true;
}

void LeaseStore::remove_lease_files(std::uint32_t batch) const noexcept {
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(leases_dir(fleet_dir_), ec)) {
    std::uint32_t file_batch = 0;
    std::uint32_t generation = 0;
    std::string owner;
    const std::string name = entry.path().filename().string();
    // Completion sweeps the batch's temp debris too (a renewal's
    // ".tmp.<pid>" sibling orphaned by a kill).
    std::string base = name;
    const std::size_t tmp = base.find(".lease.tmp.");
    if (tmp != std::string::npos) base = base.substr(0, tmp) + ".lease";
    if (!parse_lease_filename(base, &file_batch, &generation, &owner)) {
      continue;
    }
    if (file_batch != batch) continue;
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
  }
}

void LeaseStore::release(const Lease& lease) const noexcept {
  std::error_code ec;
  fs::remove(lease.path, ec);
}

}  // namespace geogossip::fleet
