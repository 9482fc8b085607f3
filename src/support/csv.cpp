#include "support/csv.hpp"

#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip {

std::string csv_escape(const std::string& value) {
  const bool needs_quote =
      value.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(std::ostream& out) : out_(&out) {}

CsvWriter::CsvWriter(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {
  GG_CHECK_ARG(owned_->is_open(), "CsvWriter: cannot open '" + path + "'");
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  GG_CHECK(!header_written_, "CSV header written twice");
  GG_CHECK_ARG(!columns.empty(), "CSV header must have at least one column");
  header_written_ = true;
  header_columns_ = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) *out_ << ',';
    *out_ << csv_escape(columns[i]);
  }
  *out_ << '\n';
}

void CsvWriter::write_field_raw(const std::string& value) {
  GG_CHECK(header_written_, "CSV data row before header");
  if (!row_open_) {
    row_open_ = true;
    fields_in_row_ = 0;
  }
  if (fields_in_row_ != 0) *out_ << ',';
  *out_ << csv_escape(value);
  ++fields_in_row_;
}

CsvWriter& CsvWriter::field(const std::string& value) {
  write_field_raw(value);
  return *this;
}

CsvWriter& CsvWriter::field(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  write_field_raw(os.str());
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t value) {
  write_field_raw(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t value) {
  write_field_raw(std::to_string(value));
  return *this;
}

void CsvWriter::end_row() {
  GG_CHECK(row_open_, "end_row() without any field()");
  GG_CHECK(fields_in_row_ == header_columns_,
           "CSV row has " + std::to_string(fields_in_row_) +
               " fields, header has " + std::to_string(header_columns_));
  *out_ << '\n';
  row_open_ = false;
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

}  // namespace geogossip
