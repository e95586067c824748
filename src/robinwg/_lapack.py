"""The three LAPACK routines the library calls, from scipy's f2py extension.

Importing the `scipy.linalg` package runs its whole Python layer (about
0.2 s) and the library needs none of it, so the compiled extension
`scipy.linalg._flapack` is loaded from its file under its own name.  A
module already loaded is reused, and a later `import scipy.linalg` finds
this one in `sys.modules`: both see the same routines.
"""

import importlib.machinery
import importlib.util
import sys

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)
if _flapack is None:
    _dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    _file = importlib.machinery.PathFinder.find_spec(
        "_flapack", [f"{_dir}/linalg"]).origin
    _spec = importlib.util.spec_from_file_location(_NAME, _file)
    _flapack = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)
    sys.modules[_NAME] = _flapack

zgtsv, zgbsv, dstemr = _flapack.zgtsv, _flapack.zgbsv, _flapack.dstemr
