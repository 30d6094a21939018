"""Numerical laboratory for kinetic jump-diffusion equations.

The package implements the transport equation

    d/dt f + v . grad_x f = L f + h

where ``L`` is a principal-value jump operator in the velocity variable
with a symmetric, possibly rough kernel; the solver runs it with
``h = 0``.  It provides

* phase points and slanted cylinders in :mod:`kineticlab.geometry`,
* jump-kernel models and ellipticity diagnostics in
  :mod:`kineticlab.kernels`,
* gridded fields and discrete operators in :mod:`kineticlab.fields`
  and :mod:`kineticlab.operators`,
* the explicit fractional-Kolmogorov fundamental solution in
  :mod:`kineticlab.fundsol`,
* a splitting solver in :mod:`kineticlab.solver`,
* Harnack-type measurements in :mod:`kineticlab.harnack`,
* barrier functions and decay envelopes in :mod:`kineticlab.aronson`,
* an experiment runner in :mod:`kineticlab.cli`.
"""

__version__ = "0.1.0"
