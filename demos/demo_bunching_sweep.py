"""From antibunching to bunching under strong driving and narrow filtering.

Two sweeps at the fused-silica etalon bandwidth (0.29 gamma):

* drive sweep -- the filtered statistics cross from antibunched through
  Poissonian into bunching as the elastic fraction collapses and the
  narrowly filtered inelastic light takes over;
* filter sweep at rabi = 2 gamma with the laser-background band -- the
  upper confidence bound (20% background) bunches harder than the clean
  lower bound, a genuinely non-classical effect of adding Poissonian light.
"""

import csv
import pathlib

import numpy as np

from filtered_rf import EmitterParams, sweep_point

here = pathlib.Path(__file__).parent
emitter = EmitterParams(gamma=1.0, rabi=2.0)

rabi_values = np.linspace(0.4, 6.0, 15)
rows = [sweep_point(emitter, "rabi", x, 0.29) for x in rabi_values]
with open(here / "demo_bunching_vs_drive.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["rabi_over_gamma", "g2_ideal"])
    for x, row in zip(rabi_values, rows):
        writer.writerow([f"{x:.4g}", f"{row['g2_ideal']:.6f}"])
crossing = next(x for x, r in zip(rabi_values, rows) if r["g2_ideal"] > 1.0)
print(f"drive sweep: crosses g2(0) = 1 near rabi = {crossing:.2g} gamma")

widths = np.logspace(np.log10(0.01), np.log10(20.0), 13)
rows = [sweep_point(emitter, "filter_width", x, beta_hi=0.2) for x in widths]
with open(here / "demo_bunching_vs_width.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["filter_width_over_gamma", "g2_clean", "g2_background20"])
    for x, row in zip(widths, rows):
        writer.writerow([f"{x:.4g}", f"{row['g2_lo']:.6f}", f"{row['g2_hi']:.6f}"])
peak = max(rows, key=lambda r: r["g2_hi"])
print(
    "filter sweep: strongest bunching "
    f"g2 = {peak['g2_hi']:.2f} (20% background) vs {peak['g2_lo']:.2f} (clean)"
)
print("wrote demo_bunching_vs_drive.csv, demo_bunching_vs_width.csv")
