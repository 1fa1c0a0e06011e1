int x = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x = x + 1;
  unlock();
  print(tmp);
}
