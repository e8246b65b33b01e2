"""The end-to-end query-service benchmark (see ``run.py``)."""
