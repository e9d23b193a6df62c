#include "common/csv.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"

namespace acdn {

CsvWriter::CsvWriter(const std::string& path)
    : path_(path),
      out_(path),
      buf_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {
  if (!out_) throw Error("csv: cannot open " + path);
  // Injected I/O error ("csv/write", kind error): simulates EIO/ENOSPC at
  // open. Export code runs outside the day loop, so the fire decision is
  // keyed by the output path at day 0 — a schedule window must cover day
  // 0 to arm it.
  static const FailPoint write_fault("csv/write");
  if (const auto fault = write_fault.fire(0, fault_coordinate(path))) {
    if (fault->kind == FaultKind::kError) {
      throw Error("csv: injected write failure: " + path);
    }
  }
}

CsvWriter::~CsvWriter() {
  // Unchecked: a destructor cannot throw. flush() is the checked path.
  out_.write(buf_.get(), static_cast<std::streamsize>(used_));
}

void CsvWriter::check_stream() const {
  if (!out_) throw Error("csv: write failed (disk full?): " + path_);
}

void CsvWriter::spill() {
  const std::size_t n = std::exchange(used_, 0);
  out_.write(buf_.get(), static_cast<std::streamsize>(n));
  check_stream();
}

void CsvWriter::flush() {
  spill();
  out_.flush();
  check_stream();
}

void CsvWriter::put(char c) {
  if (used_ == kBufferBytes) spill();
  buf_[used_++] = c;
}

void CsvWriter::append(std::string_view bytes) {
  while (!bytes.empty()) {
    if (used_ == kBufferBytes) spill();
    const std::size_t n = std::min(bytes.size(), kBufferBytes - used_);
    std::memcpy(buf_.get() + used_, bytes.data(), n);
    used_ += n;
    bytes.remove_prefix(n);
  }
}

void CsvWriter::write_field(std::string_view field, bool first) {
  if (!first) put(',');
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    append(field);
    return;
  }
  put('"');
  for (;;) {
    const std::size_t quote = field.find('"');
    if (quote == std::string_view::npos) break;
    append(field.substr(0, quote + 1));
    put('"');  // doubled
    field.remove_prefix(quote + 1);
  }
  append(field);
  put('"');
}

void CsvWriter::write_row(std::span<const std::string> fields) {
  bool first = true;
  for (const auto& f : fields) {
    write_field(f, first);
    first = false;
  }
  put('\n');
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (auto f : fields) {
    write_field(f, first);
    first = false;
  }
  put('\n');
}

char* CsvWriter::format_number(char* out, double v) {
  const auto [ptr, ec] = std::to_chars(out, out + kMaxNumberChars, v);
  if (ec == std::errc{}) return ptr;
  std::memcpy(out, "nan", 3);
  return out + 3;
}

void CsvWriter::write_numbers(std::span<const double> values, bool first) {
  // Numbers never need quoting: each field formats in place.
  for (double v : values) {
    if (kBufferBytes - used_ <= kMaxNumberChars) spill();
    char* p = buf_.get() + used_;
    if (!first) *p++ = ',';
    used_ = static_cast<std::size_t>(format_number(p, v) - buf_.get());
    first = false;
  }
  put('\n');
}

void CsvWriter::write_row(std::span<const double> values) {
  write_numbers(values, true);
}

void CsvWriter::write_row(std::string_view leading,
                          std::span<const double> values) {
  append(leading);
  write_numbers(values, leading.empty());
}

}  // namespace acdn
