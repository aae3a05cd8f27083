"""Losing antibunching by narrowing the filter (weak resonant drive).

Sweeps the filter bandwidth across four decades at rabi = 0.5 gamma and
records the zero-delay correlation, ideal and detector-convolved.  Broad
filters see the full antibunched field; once the bandwidth drops below the
natural linewidth the filtered light is almost purely elastic scattering
and the statistics become Poissonian.
"""

import csv
import pathlib

import numpy as np

from filtered_rf import EmitterParams, GaussianIRF, HBAR_UEV_PS, sweep_point

GAMMA_UEV = 20.0
gamma = GAMMA_UEV / HBAR_UEV_PS  # 1/ps
emitter = EmitterParams(gamma=gamma, rabi=0.5 * gamma)

widths = np.logspace(np.log10(0.01), np.log10(150.0), 25)
detector = GaussianIRF(fwhm=37.5)  # ps

print(f"emitter: gamma = {GAMMA_UEV} ueV, rabi = 0.5 gamma")
print(f"sweeping {widths.size} filter widths from {widths[0]:.3g} to {widths[-1]:.0f} gamma")

rows = [sweep_point(emitter, "filter_width", width * gamma, irf=detector) for width in widths]

out = pathlib.Path(__file__).with_suffix("").name + ".csv"
with open(pathlib.Path(__file__).parent / out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["filter_width_over_gamma", "g2_ideal", "g2_with_irf"])
    for width, row in zip(widths, rows):
        writer.writerow([f"{width:.6g}", f"{row['g2_ideal']:.6f}", f"{row['g2_lo']:.6f}"])
        print(
            f"  width = {width:8.3f} gamma   g2(0) ideal = {row['g2_ideal']:.4f}"
            f"   with IRF = {row['g2_lo']:.4f}"
        )

print(f"wrote {out}")
print("note the rise from ~0 toward 1 as the filter closes below gamma")
