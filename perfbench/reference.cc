#include "reference.h"

#include <cstring>

#include "lang/lang.h"
#include "relational/pretty.h"

namespace perfbench {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::string CanonicalPrefix(const fro::Relation& relation,
                            const fro::Catalog& catalog) {
  fro::PrettyOptions pretty;
  pretty.canonical = true;
  pretty.max_rows = static_cast<size_t>(-1);
  return fro::PrettyTable(relation, &catalog, pretty) + "(" +
         std::to_string(relation.NumRows()) + " rows; ";
}

std::string ReferencePrefix(const fro::NestedDb& db, const std::string& text) {
  fro::Result<fro::QueryRunResult> result =
      fro::RunQuery(db, text, fro::RunOptions().WithOptimize(false));
  if (!result.ok()) return "";
  return CanonicalPrefix(result->relation,
                         result->translation.db->catalog());
}

namespace {

// Chains Mix64 over the text's 8-byte words. Mix64 is a bijection, so
// two texts of equal length that differ in one word never collide.
uint64_t Digest(const char* data, size_t size) {
  uint64_t h = Mix64(size ^ 0x9e3779b97f4a7c15ULL);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = Mix64(h ^ word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, data + i, size - i);
  return Mix64(h ^ tail);
}

}  // namespace

Reference ReferenceOf(const std::string& prefix) {
  return {prefix.size(), Digest(prefix.data(), prefix.size())};
}

bool MatchesReference(const std::string& body, const Reference& reference) {
  if (reference.length == 0 || body.size() < reference.length) return false;
  if (Digest(body.data(), reference.length) != reference.digest) return false;
  // Only the notes line may follow: "<notes>)\n".
  return body.find('\n', reference.length) == body.size() - 1;
}

Checksum ChecksumOf(const fro::Relation& relation) {
  Checksum sum;
  const std::vector<fro::AttrId>& cols = relation.scheme().cols();
  for (const fro::Tuple& row : relation.rows()) {
    uint64_t row_hash = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      row_hash += Mix64((static_cast<uint64_t>(cols[i]) << 32) ^
                        static_cast<uint64_t>(row.value(i).Hash()));
    }
    sum.digest += Mix64(row_hash);
    ++sum.rows;
  }
  return sum;
}

}  // namespace perfbench
