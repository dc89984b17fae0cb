#include "corpus/token_index.h"

#include <cctype>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace unidetect {

void TokenIndex::AddTable(const Table& table) {
  std::unordered_set<std::string> distinct;
  for (const auto& column : table.columns()) {
    for (const auto& cell : column.cells()) {
      for (auto& token : TokenizeCell(cell)) {
        distinct.insert(ToLower(token));
      }
    }
  }
  for (auto& token : distinct) counts_[token]++;
  ++num_tables_;
}

uint64_t TokenIndex::TableCount(std::string_view token) const {
  return TableCountFolded(ToLower(token));
}

uint64_t TokenIndex::TableCountFolded(const std::string& folded_token) const {
  auto it = counts_.find(folded_token);
  return it == counts_.end() ? 0 : it->second;
}

double TokenIndex::AveragePrevalence(const Column& column) const {
  return TokenPrevalence(*this).AveragePrevalence(column);
}

void TokenIndex::Merge(const TokenIndex& other) {
  for (const auto& [token, count] : other.counts_) counts_[token] += count;
  num_tables_ += other.num_tables_;
}

uint64_t TokenPrevalence::num_tables() const {
  uint64_t total = 0;
  for (const TokenIndex* layer : layers_) total += layer->num_tables();
  return total;
}

size_t TokenPrevalence::num_tokens() const {
  if (layers_.size() == 1) return layers_[0]->num_tokens();
  size_t total = 0;
  ForEachMergedToken([&](const std::string&, uint64_t) { ++total; });
  return total;
}

uint64_t TokenPrevalence::TableCount(std::string_view token) const {
  const std::string folded = ToLower(token);
  uint64_t total = 0;
  for (const TokenIndex* layer : layers_) {
    total += layer->TableCountFolded(folded);
  }
  return total;
}

double TokenPrevalence::AveragePrevalence(const Column& column) const {
  // Each distinct raw cell is tokenized and looked up once; the per-row
  // sum then runs in row order exactly as the historical per-row loop
  // did, so the doubles are bit-identical. Counts stay integral until
  // the per-cell division, so a layered view and the merged index
  // produce identical doubles.
  struct CellMean {
    bool has_tokens = false;
    double mean = 0.0;
  };
  std::string folded;  // one case-folding buffer for every token
  const auto cell_mean = [&](std::string_view cell) {
    double cell_sum = 0.0;
    size_t tokens = 0;
    ForEachCellToken(cell, [&](std::string_view token) {
      folded.assign(token);
      for (char& c : folded) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      uint64_t count = 0;
      for (const TokenIndex* layer : layers_) {
        count += layer->TableCountFolded(folded);
      }
      cell_sum += static_cast<double>(count);
      ++tokens;
    });
    return tokens == 0
               ? CellMean{}
               : CellMean{true, cell_sum / static_cast<double>(tokens)};
  };

  // The memo is keyed by raw cell text. Column::Encoding's value ids
  // only pick the slot: a row reuses its id's entry when its raw cell
  // equals the raw cell of the id's first row. Cells that differ only in
  // trimmed padding share an id but may not share tokens (Trim strips \v
  // and \f, the tokenizer keeps them), so those, and cells that are
  // empty after trimming, go to a raw-text map instead.
  const ColumnEncoding& enc = column.Encoding();
  std::vector<CellMean> by_id(enc.num_distinct());
  std::unordered_map<std::string_view, CellMean> other;
  const auto& cells = column.cells();
  double sum = 0.0;
  size_t counted = 0;
  for (size_t row = 0; row < cells.size(); ++row) {
    const std::string& cell = cells[row];
    const uint32_t id = enc.ids[row];
    const CellMean* entry = nullptr;
    if (id != ColumnEncoding::kEmpty && row == enc.first_rows[id]) {
      by_id[id] = cell_mean(cell);
      entry = &by_id[id];
    } else if (id != ColumnEncoding::kEmpty &&
               cell == cells[enc.first_rows[id]]) {
      entry = &by_id[id];
    } else {
      auto [it, inserted] = other.try_emplace(cell);
      if (inserted) it->second = cell_mean(cell);
      entry = &it->second;
    }
    if (!entry->has_tokens) continue;
    sum += entry->mean;
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

}  // namespace unidetect
