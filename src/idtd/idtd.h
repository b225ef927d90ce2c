#ifndef CONDTD_IDTD_IDTD_H_
#define CONDTD_IDTD_IDTD_H_

#include <vector>

#include "automaton/soa.h"
#include "base/status.h"
#include "regex/ast.h"

namespace condtd {

/// Tuning knobs of Algorithm 2 (iDTD).
struct IdtdOptions {
  /// Fuzziness parameter of the repair rules. The paper's implementation
  /// fixes k = 2; ours escalates up to max_k before falling back.
  int initial_k = 2;
  int max_k = 8;
  /// When false, iDTD fails (kNoEquivalentSore) instead of running the
  /// full-merge fallback once repairs at k <= max_k are exhausted, or
  /// once the repair loop has run 4·n² + 64 rounds for an n-state SOA.
  /// That round budget is what guarantees Theorem 2's "always produces a
  /// SORE" unconditionally. The paper's implementation corresponds to
  /// initial_k = max_k = 2 with the fallback off; the library default is
  /// the stronger unrestricted variant.
  bool enable_full_merge_fallback = true;
  /// Ablation switches: individually disable the two repair rules
  /// (bench/repair_ablation quantifies what each contributes).
  bool enable_disjunction_repair = true;
  bool enable_optional_repair = true;
  /// Section 9 noise handling: when rewrite gets stuck, real edges whose
  /// support is strictly below this threshold may be dropped (as long as
  /// the automaton stays connected) before repair rules are tried.
  /// 0 disables noise handling.
  int noise_edge_threshold = 0;
  /// Section 9's "obvious way": states whose symbol support is below
  /// this threshold are removed from the SOA before rewriting (this is
  /// what eliminates low-support intruder elements entirely — edge
  /// pruning alone cannot disconnect a node). 0 disables it.
  int noise_symbol_threshold = 0;
};

/// Algorithm 2: rewrite with repair rules. Always returns a SORE r with
/// L(soa) ⊆ L(r) (Theorem 2) — except for the stateless SOA, which has
/// no SORE and fails with kFailedPrecondition. With noise handling
/// enabled the result may not be a superset (that is the point: noisy
/// observations are dropped).
Result<ReRef> IdtdFromSoa(const Soa& soa, const IdtdOptions& options = {});

/// 2T-INF on `sample` followed by IdtdFromSoa.
Result<ReRef> IdtdInfer(const std::vector<Word>& sample,
                        const IdtdOptions& options = {});

}  // namespace condtd

#endif  // CONDTD_IDTD_IDTD_H_
