"""``python -m cnmfg COMMAND --config FILE ...`` runs the ``cnmfg`` command line."""

from .cli import main

__all__: list = []

if __name__ == "__main__":
    main()
