#include "core/report/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace netclients::core {

void TextTable::set_header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths;
  auto grow = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      out += cell;
      out.append(widths[i] - cell.size() + 2, ' ');
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out.push_back('\n');
  };
  emit(header_);
  std::size_t total = widths.empty() ? 0 : 2 * (widths.size() - 1);
  for (auto w : widths) total += w;
  out.append(total, '-');
  out.push_back('\n');
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string human_count(double value) {
  char buffer[32];
  if (value >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM", value / 1e6);
  } else if (value >= 1e4) {
    std::snprintf(buffer, sizeof(buffer), "%.1fK", value / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  }
  return buffer;
}

std::string pct(double percent, int digits) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", digits, percent);
  return buffer;
}

std::string fixed(double value, int digits) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string render_overlap(const OverlapMatrix& matrix, bool human) {
  TextTable table;
  std::vector<std::string> header{""};
  for (const auto& name : matrix.names) header.push_back(name);
  table.set_header(std::move(header));
  for (std::size_t r = 0; r < matrix.names.size(); ++r) {
    std::vector<std::string> row{matrix.names[r]};
    for (std::size_t c = 0; c < matrix.names.size(); ++c) {
      const double count = static_cast<double>(matrix.cells[r][c]);
      const std::string value =
          human ? human_count(count) : fixed(count, 0);
      row.push_back(value + " (" + pct(matrix.row_pct(r, c)) + ")");
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

bool write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out << ',';
      out << cells[i];
    }
    out << '\n';
  };
  emit(header);
  for (const auto& row : rows) emit(row);
  out.close();  // flushes the buffered tail; a failed flush fails here
  return static_cast<bool>(out);
}

}  // namespace netclients::core
