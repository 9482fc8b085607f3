#include "support/atomic_file.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "support/retry.hpp"

namespace geogossip {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kTempInfix = ".tmp.";

int process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<int>(::getpid());
#else
  return 0;
#endif
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp =
      path + std::string(kTempInfix) + std::to_string(process_id());
  retry_io(RetryPolicy{}, "atomic_write_file: committing " + path, [&] {
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) return false;
    bool ok =
        std::fwrite(content.data(), 1, content.size(), file) ==
            content.size() &&
        std::fflush(file) == 0;
#if defined(__unix__) || defined(__APPLE__)
    // The rename below only orders the DIRECTORY entry; without an fsync
    // the flipped-in file could still lose its bytes to a power cut.
    ok = ok && ::fsync(::fileno(file)) == 0;
#endif
    ok = std::fclose(file) == 0 && ok;
    std::error_code ec;
    if (ok) {
      fs::rename(tmp, path, ec);
      if (!ec) return true;
    }
    fs::remove(tmp, ec);
    return false;
  });
}

std::vector<std::string> temp_siblings(const std::string& path) {
  const fs::path target(path);
  const std::string prefix =
      target.filename().string() + std::string(kTempInfix);
  const fs::path parent =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(parent, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().filename().string().starts_with(prefix)) {
      out.push_back(it->path().string());
    }
  }
  return out;
}

std::vector<std::string> sweep_stale_temps(const std::string& dir,
                                           double min_age_seconds) {
  const auto min_age =
      std::chrono::duration_cast<fs::file_time_type::duration>(
          std::chrono::duration<double>(min_age_seconds));
  const auto now = fs::file_time_type::clock::now();
  std::vector<std::string> swept;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code entry_ec;
    if (!it->is_regular_file(entry_ec) ||
        it->path().filename().string().find(kTempInfix) ==
            std::string::npos) {
      continue;
    }
    const auto mtime = it->last_write_time(entry_ec);
    if (entry_ec || now - mtime < min_age) continue;
    if (fs::remove(it->path(), entry_ec)) {
      swept.push_back(it->path().string());
    }
  }
  return swept;
}

}  // namespace geogossip
