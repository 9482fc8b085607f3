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
std::string microseconds(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

/// A metadata event naming the trace's process or its synthetic lane.
std::string metadata_event(std::string_view name, std::string_view value) {
  return JsonObject()
      .field("name", name)
      .field("ph", "M")
      .field("pid", kPid)
      .field("tid", kSyntheticTid)
      .field("args", JsonObject().field("name", value))
      .str();
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Snapshot& snap,
                        const std::string& process_name) {
  // Normalize timestamps so the trace starts near t = 0 (steady-clock
  // epochs are arbitrary and Perfetto renders absolute offsets poorly).
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const Event& event : snap.events) t0 = std::min(t0, event.start_ns);
  if (snap.events.empty()) t0 = 0;

  out << "{\"traceEvents\":[\n"
      << metadata_event("process_name", process_name) << ",\n"
      << metadata_event("thread_name", "cells");
  for (const Event& event : snap.events) {
    JsonObject span;
    span.field("name", event.name)
        .field("ph", "X")
        .field("pid", kPid)
        .field("tid", event.tid)
        .number("ts", microseconds(event.start_ns - t0))
        .number("dur", microseconds(event.end_ns >= event.start_ns
                                        ? event.end_ns - event.start_ns
                                        : 0));
    if (event.key_a != nullptr || event.key_b != nullptr) {
      JsonObject args;
      if (event.key_a != nullptr) args.field(event.key_a, event.arg_a);
      if (event.key_b != nullptr) args.field(event.key_b, event.arg_b);
      span.field("args", args);
    }
    out << ",\n" << span.str();
  }
  JsonObject counters;
  for (const auto& [name, value] : snap.counters) counters.field(name, value);
  out << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":"
      << JsonObject()
             .field("droppedEvents", snap.dropped_events)
             .field("counters", counters)
             .str()
      << "}\n";
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
