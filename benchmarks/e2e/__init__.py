"""End-to-end verdict benchmark (see README.md and run.py)."""
