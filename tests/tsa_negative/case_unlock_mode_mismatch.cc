// Violation: exclusive acquire paired with a shared release — the mismatch
// would leave the writer flag raised and the exclusive hold never released
// (readers and writers deadlock).
#include "storage/chunk_latch.h"

namespace {

casper::ChunkLatch g_latch;

}  // namespace

void CaseUnlockModeMismatch() {
  g_latch.LockExclusive();
#ifdef CASPER_TSA_VIOLATION
  g_latch.UnlockShared();  // wrong side of the latch
#else
  g_latch.UnlockExclusive();
#endif
}
