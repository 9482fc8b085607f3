#include "obs/trace_export.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>

#include "support/check.hpp"
#include "support/json.hpp"

namespace geogossip::obs {

namespace {

constexpr int kPid = 1;

/// Microseconds with nanosecond resolution kept (three decimals), so
/// sub-microsecond spans stay visible and containment relations between
/// spans survive the unit change (ns -> us is monotone).
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Snapshot& snap,
                        const std::string& process_name) {
  // Normalize timestamps so the trace starts near t = 0 (steady-clock
  // epochs are arbitrary and Perfetto renders absolute offsets poorly).
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const Event& event : snap.events) t0 = std::min(t0, event.start_ns);
  if (snap.events.empty()) t0 = 0;

  // Reused line buffer.  clear()+append instead of operator=(const char*)
  // throughout: gcc 12's -Wrestrict misfires on char* assignment into a
  // string with retained capacity (PR105651) and CI builds with -Werror.
  std::string line;
  out << "{\"traceEvents\":[\n";
  line += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"";
  line += json_escape(process_name);
  line += "\"}}";
  out << line;
  out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"cells\"}}";
  for (const Event& event : snap.events) {
    line.clear();
    line += ",\n{\"name\":\"";
    line += json_escape(event.name);
    line += "\",\"ph\":\"X\",\"pid\":";
    line += std::to_string(kPid);
    line += ",\"tid\":";
    line += std::to_string(event.tid);
    line += ",\"ts\":";
    append_us(line, event.start_ns - t0);
    line += ",\"dur\":";
    append_us(line, event.end_ns >= event.start_ns
                        ? event.end_ns - event.start_ns
                        : 0);
    if (event.key_a != nullptr || event.key_b != nullptr) {
      line += ",\"args\":{";
      bool first = true;
      if (event.key_a != nullptr) {
        line += "\"";
        line += json_escape(event.key_a);
        line += "\":";
        line += std::to_string(event.arg_a);
        first = false;
      }
      if (event.key_b != nullptr) {
        if (!first) line += ",";
        line += "\"";
        line += json_escape(event.key_b);
        line += "\":";
        line += std::to_string(event.arg_b);
      }
      line += "}";
    }
    line += "}";
    out << line;
  }
  out << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
      << "\"droppedEvents\":" << snap.dropped_events << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    line.clear();
    line += "\"";
    line += json_escape(name);
    line += "\":";
    line += std::to_string(value);
    out << line;
  }
  out << "}}}\n";
}

void write_chrome_trace_file(const std::string& path, const Snapshot& snap,
                             const std::string& process_name) {
  std::ofstream out(path, std::ios::trunc);
  GG_CHECK_ARG(out.is_open(),
               "write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out, snap, process_name);
  out.flush();
  if (!out.good()) {
    throw IoError("write_chrome_trace_file: write failed for " + path);
  }
}

}  // namespace geogossip::obs
