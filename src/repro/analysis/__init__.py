"""Statistics helpers, figure-series builders, and text reporting.

Figure-series builders live in :mod:`repro.analysis.curves`; they are
not imported here because they depend on the policy and simulator
packages. Import them explicitly::

    from repro.analysis.curves import figure3_data
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.concurrency import (
        concurrency_headroom_mb, concurrency_profile, working_set_mb,
    )
    from repro.analysis.reporting import format_bar_chart, format_series_table, format_table
    from repro.analysis.stats import EWMA, Welford, mean, percentile
    from repro.analysis.workload import (
        WorkloadProfile, diurnal_peak_to_mean, gini_coefficient, orders_of_magnitude, profile_trace,
        top_share,
    )

__all__ = [
    "concurrency_headroom_mb", "concurrency_profile", "working_set_mb",
    "format_bar_chart", "format_series_table", "format_table",
    "EWMA", "Welford", "mean", "percentile",
    "WorkloadProfile", "diurnal_peak_to_mean", "gini_coefficient", "orders_of_magnitude",
    "profile_trace", "top_share",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "concurrency": "concurrency_headroom_mb concurrency_profile working_set_mb",
    "reporting": "format_bar_chart format_series_table format_table",
    "stats": "EWMA Welford mean percentile",
    "workload": (
        "WorkloadProfile diurnal_peak_to_mean gini_coefficient orders_of_magnitude profile_trace "
        "top_share"
    ),
})
