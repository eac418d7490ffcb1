import os
import sys

from hypothesis import settings

# allow running the suite from a checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# every run of a property test draws the same examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
