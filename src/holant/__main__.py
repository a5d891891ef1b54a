"""``python -m holant``: the command-line front end, without the console script."""

from .cli import main

if __name__ == "__main__":
    main()
