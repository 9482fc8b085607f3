// CSV emission for experiment results.
//
// Benches print human-readable tables to stdout and, when given --csv=PATH,
// also dump a machine-readable CSV through this writer so results can be
// re-plotted without re-running the sweep.
#ifndef GEOGOSSIP_SUPPORT_CSV_HPP
#define GEOGOSSIP_SUPPORT_CSV_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace geogossip {

/// Streams rows of a single table.  Field values are escaped per RFC 4180
/// (quotes doubled, fields containing comma/quote/newline quoted).
class CsvWriter {
 public:
  /// Writes to an externally owned stream.
  explicit CsvWriter(std::ostream& out);

  /// Opens (truncates) `path`.  Throws ArgumentError if the file cannot be
  /// opened.
  explicit CsvWriter(const std::string& path);

  /// Emits the header row.  Must be called before any data row; calling it
  /// twice throws CheckError.
  void header(const std::vector<std::string>& columns);

  /// Starts a fresh row.  Finish it with end_row().
  CsvWriter& field(const std::string& value);
  CsvWriter& field(double value);
  CsvWriter& field(std::int64_t value);
  CsvWriter& field(std::uint64_t value);
  void end_row();

  /// Convenience: writes an entire row of already-stringified fields.
  void row(const std::vector<std::string>& fields);

 private:
  void write_field_raw(const std::string& value);

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  bool header_written_ = false;
  bool row_open_ = false;
  std::size_t header_columns_ = 0;
  std::size_t fields_in_row_ = 0;
};

/// Escapes a single CSV field per RFC 4180.
std::string csv_escape(const std::string& value);

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_CSV_HPP
