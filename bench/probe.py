"""Set-up probe: in a fresh interpreter, build one workload's inputs and
print "ready".  Usage: python3 bench/probe.py <workload> <seed>"""

import sys

import inputs

inputs.setup(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
