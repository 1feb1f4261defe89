// Fixture for the tier-isolation check: compaction-thread code reaching
// for an executor-lattice rank. The declaration names a LockRank, so
// ranked-mutex-decl stays quiet — exactly one finding is seeded here.

namespace gemstone::storage::tier {

class BadCompactor {
  // Upper-lattice rank inside tier code: the seeded violation.
  Mutex mu_{LockRank::kExecutorSessions, "tier.bad_compactor_mu"};
};

}  // namespace gemstone::storage::tier
