// Aligned console tables — the "plotting" substitute for a headless repro.
//
// Benches print each figure/table of the E1-E11 list in the README
// ("Reproducing the paper's figures") through ConsoleTable, and series
// data through AsciiChart (a log/linear scatter rendered in text), since
// the reproduction environment has no graphical plotting stack.
#ifndef GEOGOSSIP_SUPPORT_TABLE_HPP
#define GEOGOSSIP_SUPPORT_TABLE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace geogossip {

/// Column alignment inside a ConsoleTable.
enum class Align { kLeft, kRight };

/// Collects rows of strings and prints them with padded, aligned columns and
/// a rule under the header.
class ConsoleTable {
 public:
  /// All columns default to right alignment (numeric tables dominate).
  explicit ConsoleTable(std::vector<std::string> columns);

  void set_alignment(std::size_t column, Align align);

  /// Adds a row; must have exactly as many cells as there are columns.
  void add_row(std::vector<std::string> cells);

  /// Convenience builder mirroring CsvWriter's field/end_row pattern.
  ConsoleTable& cell(const std::string& value);
  ConsoleTable& cell(double value, int decimals = 4);
  ConsoleTable& cell(std::int64_t value);
  ConsoleTable& cell(std::uint64_t value);
  void end_row();

  /// Renders with two spaces between columns.
  void print(std::ostream& out) const;
  std::string to_string() const;

 private:
  std::vector<std::string> columns_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

/// Text scatter plot: y-series against x, optionally log-scaled.  Good enough
/// to see contraction slopes and scaling exponents at a glance.
class AsciiChart {
 public:
  struct Options {
    int width = 72;
    int height = 20;
    bool log_x = false;
    bool log_y = false;
  };

  AsciiChart();
  explicit AsciiChart(Options options);

  /// Adds a named series; marker is the character plotted.
  void add_series(const std::string& name, char marker,
                  const std::vector<double>& xs,
                  const std::vector<double>& ys);

  void print(std::ostream& out) const;

 private:
  struct Series {
    std::string name;
    char marker;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  Options options_;
  std::vector<Series> series_;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_TABLE_HPP
