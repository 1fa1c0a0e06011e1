int x = 0;
void inc() {
  x = x + ;
}
