// Minimal CSV writer used by the bench harnesses to export figure data.
#pragma once

#include <cstddef>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace acdn {

/// Writes RFC-4180-ish CSV. Fields containing separators or quotes are
/// quoted; numeric overloads format with full round-trip precision.
///
/// Rows are formatted straight into one owned buffer of kBufferBytes,
/// which goes to the stream in a single write each time it fills (a
/// spill), so memory stays bounded whatever the file size. Write failures
/// are not silent: every spill and flush() checks the stream and throws
/// acdn::Error naming the path, so a full disk surfaces as an exception —
/// from the write_row that filled the buffer, or at the latest from
/// flush() — instead of a truncated figure CSV under a success exit.
/// Callers that finish a file should call flush(): the destructor writes
/// out whatever is still buffered, but it cannot throw, so that write is
/// best effort.
class CsvWriter {
 public:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;
  /// Room format_number() needs: the longest shortest-form double is 24
  /// characters ("-2.2250738585072014e-308").
  static constexpr std::size_t kMaxNumberChars = 32;

  /// Opens `path` for writing, truncating any existing file. Throws
  /// acdn::Error if the file cannot be opened.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(std::span<const std::string> fields);
  void write_row(std::initializer_list<std::string_view> fields);

  /// Header then rows of doubles — the common shape for figure series.
  void write_header(std::initializer_list<std::string_view> names) {
    write_row(names);
  }
  void write_row(std::span<const double> values);

  /// Writes `leading` verbatim as the row's first fields, then `values`.
  /// Rows that share their leading fields format them once (with
  /// format_number) and pass the same text for each row; it must need no
  /// quoting.
  void write_row(std::string_view leading, std::span<const double> values);

  /// Writes `v` at `out` exactly as the numeric overloads do — the
  /// shortest text that round-trips, so exported data re-imports
  /// bit-identical — and returns one past its last character. `out` must
  /// have kMaxNumberChars of room.
  static char* format_number(char* out, double v);

  /// Writes out buffered rows and throws acdn::Error if any write failed.
  void flush();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void put(char c);
  void append(std::string_view bytes);
  void write_field(std::string_view field, bool first);
  void write_numbers(std::span<const double> values, bool first);
  /// Hands the buffered bytes to the stream and empties the buffer;
  /// throws acdn::Error if the stream failed.
  void spill();
  void check_stream() const;

  std::string path_;
  std::ofstream out_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
};

}  // namespace acdn
