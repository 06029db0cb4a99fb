"""Re-fit the compression constant C of `coordinate_jl` by its documented protocol.

Runs `fit_jl_constant()` at its defaults (n = 128, eps = 0.25, seeds 0..199,
a 0.025 grid up to 2.0) and prints the resulting FittedConstant and the
time it took.  From the root of a checkout:

    PYTHONPATH=src python3 scripts/refit_jl_constant.py

The shipped DEFAULT_JL_CONSTANT should equal the printed value.
"""

import time

from coordproj.rotation import DEFAULT_JL_CONSTANT, fit_jl_constant


def main() -> None:
    start = time.perf_counter()
    fitted = fit_jl_constant()
    elapsed = time.perf_counter() - start
    print(fitted)
    print(f"value {fitted.value} against DEFAULT_JL_CONSTANT {DEFAULT_JL_CONSTANT}; {elapsed:.1f} s")


if __name__ == "__main__":
    main()
