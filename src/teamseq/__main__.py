"""`python -m teamseq`: the command-line front end, with its exit codes."""

from .cli import main

if __name__ == "__main__":
    main()
