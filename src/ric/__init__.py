"""Interface compliance tooling for GNU extended inline assembly (i386).

Modules: chunk extraction (`ric.chunks`), interface derivation
(`ric.constraints`), the compliance checker (`ric.checker`), the patch
synthesizer (`ric.patcher`), the interface refiner (`ric.refiner`), and
the differential oracle (`ric.oracle`). Importing the package loads none
of them.
"""

__version__ = "0.1.0"
