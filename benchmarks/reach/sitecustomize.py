"""Start the line reach collector in this process when ``REPRO_REACH_DIR``
is set; ``reach.py run`` puts this directory on ``PYTHONPATH``."""

import os

if os.environ.get("REPRO_REACH_DIR"):
    import reach

    reach.start_from_env()
