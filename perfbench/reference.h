// Reference results. By Theorem 1 every implementing tree of a freely
// reorderable query evaluates to the same relation, so the translator's
// own, unoptimized tree is the reference every optimized plan must
// match. Served results are compared as the canonical table the server
// renders; analytic results as an order-independent checksum.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>

#include "lang/model.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace perfbench {

/// A 64-bit finalizer (MurmurHash3's fmix64): every input bit affects
/// every output bit.
uint64_t Mix64(uint64_t x);

/// The canonical rendering QuerySession uses for a QUERY response,
/// without its trailing notes: sorted rows and columns, every row, then
/// "(<n> rows; ". A served body matches when it starts with this prefix.
std::string CanonicalPrefix(const fro::Relation& relation,
                            const fro::Catalog& catalog);

/// CanonicalPrefix of the translator's implementing tree for `text`,
/// run unoptimized through lang::RunQuery. Empty when the query fails.
std::string ReferencePrefix(const fro::NestedDb& db, const std::string& text);

/// What a served body is checked against: the length and a 64-bit
/// digest of a reference prefix. The harness keeps these rather than the
/// prefixes themselves (about 18 MB over the ad-hoc pool), so that the
/// references do not weigh on the measured process's memory.
struct Reference {
  /// 0 when there is no reference: the query failed.
  size_t length = 0;
  uint64_t digest = 0;
};

Reference ReferenceOf(const std::string& prefix);

/// True when a served body renders the reference result: it starts with
/// the reference prefix and only the notes line follows.
bool MatchesReference(const std::string& body, const Reference& reference);

/// Order-independent digest of a relation: row count plus a sum of
/// per-row hashes, each row hashed as a set of (attribute, value) pairs
/// so that plans emitting columns in another order still agree.
struct Checksum {
  uint64_t rows = 0;
  uint64_t digest = 0;

  bool operator==(const Checksum& other) const {
    return rows == other.rows && digest == other.digest;
  }
  bool operator!=(const Checksum& other) const { return !(*this == other); }
};

Checksum ChecksumOf(const fro::Relation& relation);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
