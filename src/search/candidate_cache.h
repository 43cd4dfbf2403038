// Content-addressed cache of candidate scores (DESIGN.md §14).
//
// The local-search trajectories revisit genotypes constantly — greedy sweeps
// re-try the same moves every pass, and random walks frequently undo a step
// — so the search pipeline memoizes the scorer's results per genotype. The key
// is the full genotype content (layer, slot, stream per gene); a 64-bit mix
// of that content buckets the entries and an exact genotype comparison
// guards against collisions, so a hit is guaranteed to return the
// bit-identical score the cold evaluation produced. Rejections (memory cap)
// are cached too, as sentinel times, so a revisited infeasible candidate
// costs one lookup instead of a memory walk.
//
// The cache never evicts: a search trajectory touches at most
// budget + O(genes * sweeps) genotypes, each entry is a few dozen bytes, and
// determinism is simpler to argue when a score, once computed, is the score
// forever. Each trajectory owns a private cache (no sharing across threads),
// which keeps the parallel portfolio byte-identical at any thread count.

#ifndef OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_
#define OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/search/search.h"

namespace oobp {

class CandidateCache {
 public:
  struct Score {
    TimeNs time = 0;       // scored iteration time, or the reject sentinel
    int64_t peak = 0;      // activation-memory peak
  };

  // Returns the cached score or nullptr; counts a hit or a miss. The
  // pointer is invalidated by the next Insert. The two-argument form takes
  // the precomputed content hash so the miss path can reuse it for Insert
  // instead of rehashing the genotype.
  const Score* Lookup(const Genotype& genotype);
  const Score* Lookup(const Genotype& genotype, uint64_t hash);

  // Inserts a score for `genotype`; the genotype must not already be cached
  // (every miss is evaluated exactly once). `hash` must equal
  // Hash(genotype).
  void Insert(const Genotype& genotype, Score score);
  void Insert(const Genotype& genotype, Score score, uint64_t hash);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return size_; }

  // Deterministic 64-bit content hash of a genotype (bucketing only; entries
  // always compare the full genotype).
  static uint64_t Hash(const Genotype& genotype);

 private:
  struct Entry {
    Genotype genotype;
    Score score;
  };
  // Bucketed by content hash; collisions chain within the bucket vector.
  std::unordered_map<uint64_t, std::vector<Entry>> buckets_;
  size_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_
