import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(PERFBENCH), "src"), PERFBENCH]
