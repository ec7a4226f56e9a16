"""Closed-loop benchmark of the pelwedge CLI; run it as `python3 perfbench/run.py`."""
