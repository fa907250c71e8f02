#include "text/table_renderer.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace evident {

namespace {

/// Columns that contain UTF-8 (Θ, †) need width computed in code points,
/// not bytes; this counts non-continuation bytes.
size_t DisplayWidth(const std::string& s) {
  size_t w = 0;
  for (unsigned char c : s) {
    if ((c & 0xC0) != 0x80) ++w;
  }
  return w;
}

std::string Pad(const std::string& s, size_t width) {
  std::string out = s;
  const size_t w = DisplayWidth(s);
  if (w < width) out.append(width - w, ' ');
  return out;
}

}  // namespace

std::string RenderTable(const ExtendedRelation& relation,
                        const RenderOptions& options) {
  const SchemaPtr& schema = relation.schema();
  std::ostringstream os;
  const std::string title =
      options.title.empty() ? "Table " + relation.name() : options.title;
  os << title << "\n";
  if (schema == nullptr) {
    os << "(no schema)\n";
    return os.str();
  }

  std::vector<std::string> headers;
  headers.reserve(schema->size() + 1);
  for (const AttributeDef& attr : schema->attributes()) {
    headers.push_back(
        (options.mark_uncertain && attr.is_uncertain() ? "†" : "") +
        attr.name);
  }
  headers.push_back("(sn,sp)");

  std::vector<std::vector<std::string>> cells;
  cells.reserve(relation.size());
  for (size_t r = 0; r < relation.size(); ++r) {
    const ExtendedTuple t = relation.row(r);
    std::vector<std::string> row;
    row.reserve(t.cells.size() + 1);
    for (const Cell& cell : t.cells) {
      row.push_back(CellToString(cell, options.mass_decimals));
    }
    row.push_back(t.membership.ToString(options.mass_decimals));
    cells.push_back(std::move(row));
  }

  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = DisplayWidth(headers[c]);
    for (const auto& row : cells) {
      widths[c] = std::max(widths[c], DisplayWidth(row[c]));
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (size_t c = 0; c < row.size(); ++c) {
      os << Pad(row[c], widths[c]) << " | ";
    }
    os << "\n";
  };
  size_t total = 1;
  for (size_t w : widths) total += w + 3;
  os << std::string(total, '-') << "\n";
  emit_row(headers);
  os << std::string(total, '-') << "\n";
  for (const auto& row : cells) emit_row(row);
  os << std::string(total, '-') << "\n";
  return os.str();
}

}  // namespace evident
