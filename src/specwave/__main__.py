import gc
import sys

from .cli import main

code = main()
gc.freeze()  # every file is closed: the exit collection skips NumPy's import-time heap
sys.exit(code)
