import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

# the benchmark's modules import each other as top-level modules (the
# scripts run with bench/ on sys.path), and the program lives in src/
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
