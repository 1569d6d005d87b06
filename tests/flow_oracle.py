"""Test oracles for ``georev.flow``: the scalar latitude equation and a
closed geodesic trace resampled as a flow curve.

Rotationally symmetric curves stay parallels under the curve shortening
flow, and the flow then reduces to du2/dt = -h'/(h gamma^2); ``solve_ivp``
on ``latitude_ode_rhs`` is the independent route the flow is judged
against.  ``curve_from_trace`` turns a closure-certified geodesic into a
``FlowCurve``, which the flow must leave (nearly) in place.
"""

from __future__ import annotations

import math

import numpy as np

from georev.flow import FlowCurve


def latitude_ode_rhs(surface):
    """Scalar oracle for rotationally symmetric flows: du2/dt = -h'/(h gamma^2)."""
    prof = surface.profile

    def rhs(t, y):
        h, dh, _, dg, _ = prof.jet(y[0])
        return (-dh / (h * float(np.hypot(dh, dg)) ** 2),)

    return rhs


def curve_from_trace(trace, m=512):
    """Resample a closure-certified geodesic trace as a FlowCurve."""
    if trace.closure is None:
        raise ValueError("trace must be closure-certified")
    T = trace.closure.period
    ts = np.linspace(0.0, T, m, endpoint=False)
    ys = trace.eval(ts)
    yT = trace.eval(T)
    winding = int(round((yT[0] - ys[0][0]) / (2.0 * math.pi)))
    return FlowCurve(np.stack([ys[0], ys[1]], axis=1), winding, 0.0)
