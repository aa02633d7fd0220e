"""Compare the four methods on one default scenario.

EA-FA: equal allocation, all modules on (the baseline).
PA-FA: optimized power, all modules on.
PA-SA: the proposed joint activation + power optimization.
PA-ES: exhaustive search over module subsets (exponential cost); it solves
       the subsets whose certified HPE bound reaches the best single module,
       and its subset solves are not certified optimal, so it can miss the
       optimum.
"""

from xlwpt.bench import run_methods
from xlwpt.scenario import ScenarioConfig

cfg = ScenarioConfig(seed=0)
results, faults = run_methods(cfg)

print("%-6s %10s %8s %8s %10s" % ("method", "HPE", "eta", "active", "seconds"))
for r in results:
    print("%-6s %10.5f %8.3f %5d/%d %10.3f"
          % (r.method, r.hpe, r.eta, r.active_count, cfg.n_sub, r.wall_clock))

sa = next(r for r in results if r.method == "PA-SA")
es = next(r for r in results if r.method == "PA-ES")
print("\nPA-SA reaches %.1f%% of the exhaustive-search HPE while evaluating"
      % (100 * sa.hpe / es.hpe))
print("one activation path instead of %d subsets; PA-ES solved %d of them"
      % (es.extra["subsets_evaluated"], es.extra["subsets_solved"]))
print("and ruled out the rest by their certified HPE bound.")
