// Violation: releasing a latch that is not held — undefined behaviour on the
// underlying shared_mutex, and it would clear another holder's writer flag.
#include "storage/chunk_latch.h"

namespace {

casper::ChunkLatch g_latch;

}  // namespace

void CaseDoubleRelease() {
#ifdef CASPER_TSA_VIOLATION
  g_latch.UnlockExclusive();  // never locked
#else
  g_latch.LockExclusive();
  g_latch.UnlockExclusive();
#endif
}
