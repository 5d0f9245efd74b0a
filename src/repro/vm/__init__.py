"""Gas-metered virtual machines and the portable contract framework."""
