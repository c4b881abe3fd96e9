#include "exec/chunk_snapshot.h"

#include "layouts/layout_engine.h"

namespace casper {

ChunkSnapshot ChunkSnapshot::Capture(const LayoutEngine& engine,
                                     TimestampOracle* oracle) {
  ChunkSnapshot snap;
  snap.ts_ = oracle != nullptr ? oracle->Current() : 0;
  const size_t n = engine.NumShards();
  snap.epochs_.reserve(n);
  for (size_t d = 0; d < n; ++d) {
    // ReadBegin spins past any in-flight writer: captured epochs are even,
    // i.e. each domain was stable at its capture instant.
    snap.epochs_.push_back(engine.DomainLatch(d).ReadBegin());
  }
  return snap;
}

bool ChunkSnapshot::Validate(const LayoutEngine& engine) const {
  for (size_t d = 0; d < epochs_.size(); ++d) {
    if (!engine.DomainLatch(d).ReadValidate(epochs_[d])) return false;
  }
  return true;
}

std::vector<size_t> ChunkSnapshot::ChangedDomains(const LayoutEngine& engine) const {
  std::vector<size_t> changed;
  for (size_t d = 0; d < epochs_.size(); ++d) {
    if (engine.DomainLatch(d).Epoch() != epochs_[d]) changed.push_back(d);
  }
  return changed;
}

}  // namespace casper
