"""stagebench: the stageflow benchmark harness (entry point: run.py)."""
