import sys
from hngame.cli import main
sys.exit(main())
