"""Process-parallel helpers: engine portfolios and parameter sweeps."""

from repro.parallel.pool import parallel_map
from repro.parallel.portfolio import portfolio_solve, sequential_portfolio

__all__ = ["parallel_map", "portfolio_solve", "sequential_portfolio"]
