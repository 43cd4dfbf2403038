// Registration of the paper's figure experiments (Figures 1, 2, 4-12) as
// runner scenarios; `oobp bench --filter=<name> --golden` runs any of them
// against its golden file. Heavyweight figures are split into several
// scenarios (Figure 7 per model, Figure 10 per cluster) so the thread pool
// can spread them.

#ifndef OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_
#define OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_

namespace oobp {

// Registers all paper scenarios into ScenarioRegistry::Global(); idempotent
// (safe to call from multiple entry points).
void RegisterPaperScenarios();

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_
