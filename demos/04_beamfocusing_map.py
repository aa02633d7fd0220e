"""ASCII power map: where does the optimized array focus its energy?

Solves the joint problem, then rasters the power a probe user would
harvest over the xz-plane. Near-field beamfocusing concentrates energy at
the user locations (a point in range and angle), not just a direction.
"""

import numpy as np

from xlwpt.baselines import pa_sa
from xlwpt.bench import emit_powermap
from xlwpt.scenario import ScenarioConfig

cfg = ScenarioConfig(seed=0)
ch = cfg.channel_set()
result = pa_sa(ch, cfg.pa_config(), cfg.power, cfg.sa_config())

extent = (-2.0, 2.0, 0.1, 2.0)
grid = emit_powermap(cfg, result.allocation, plane="xz", extent=extent,
                     resolution=41, path="xlwpt_powermap.csv", ch=ch)

shades = " .:-=+*#%@"
top = grid.max()
print("harvested power over the xz-plane (array at z=0, x in [-2, 2]):\n")
for row in grid[::-1]:
    line = "".join(shades[min(int(v / top * (len(shades) - 1) * 4),
                              len(shades) - 1)] for v in row)
    print("  " + line)
print("\nusers:")
for u in cfg.users():
    print("  x=%+.2f z=%.2f (VR %d)" % (u.x, u.z, u.vr_label))
print("\nfull raster written to xlwpt_powermap.csv")
print("active modules:", np.nonzero(result.allocation.a)[0].tolist())
